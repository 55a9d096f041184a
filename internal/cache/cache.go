// Package cache implements AutoWebCache's core page cache (§3.1, Fig. 3):
//
//   - a page table mapping request URIs (including arguments) to cached web
//     pages, and
//   - a dependency table mapping each read-query template to the (value
//     vector, page key) pairs that used it,
//
// plus the consistency machinery of §3.2: on a write, the query-analysis
// engine decides which cached read instances the write intersects, and the
// pages depending on them are invalidated.
//
// Beyond the paper's core, the package implements the extensions its §9
// lists as future work: bounded capacity — a byte budget with segmented LRU
// eviction and optional TinyLFU admission — and time-lagged (TTL) weak
// consistency, which also realises the TPC-W BestSellers 30-second semantic
// window of §4.3.
//
// Cache is one type over four files. store.go holds its tables and their
// governance: the budgets, eviction, admission, expiry, the write sweep and
// the epoch ring. This file holds its public surface: the once-per-insert
// body copy, the Page, View and Export views, and the RemoteInvalidator
// fan-out to cluster peers. variants.go builds the gzip/ETag variants, and
// l2tier.go moves pages to and from the disk tier.
//
// The paper's strong-consistency contract is preserved: InvalidateWrite
// returns only after every dependent page fully inserted before the call has
// been removed, so the writer's response is released strictly after the
// invalidation (§3.2).
package cache

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache/l2"
	"autowebcache/internal/tinylfu"
)

// Options configures a Cache.
type Options struct {
	// Engine decides read/write intersections. Required.
	Engine *analysis.Engine
	// MaxBytes bounds the accounted memory of cached pages — body, key and
	// dependency overhead, charged at Insert and credited at removal; 0
	// means unbounded. It tracks actual payload size, so a handful of
	// multi-megabyte pages cannot blow the heap. A single page costing more
	// than MaxBytes is served to its requester but never held in memory; with
	// L2 set it goes to the disk tier instead.
	//
	// A bounded cache evicts by segmented LRU: new pages start on probation
	// and are promoted on their first hit; under pressure, probation pages
	// are evicted before protected ones, each segment in exact cross-shard
	// LRU order, so a burst of one-hit inserts cannot flush the proven
	// working set.
	MaxBytes int64
	// Admission additionally gates inserts under byte-budget pressure with a
	// TinyLFU filter: when the cache is at MaxBytes, a candidate page is
	// admitted — evicting the LRU victim — only if its estimated
	// request frequency strictly beats the victim's. One-hit wonders are
	// rejected instead of displacing hot pages: with L2 set, a rejected page
	// goes to the disk tier (a volatile record, never restored by a boot);
	// without one it is still served, just not cached. Requires
	// MaxBytes > 0.
	Admission bool
	// Shards is the lock-stripe count for the page and dependency tables,
	// rounded up to a power of two. 0 picks GOMAXPROCS rounded likewise.
	Shards int
	// Clock supplies the current time; defaults to time.Now. Injectable for
	// deterministic TTL tests.
	Clock func() time.Time
	// ForceMiss makes every Lookup miss while leaving inserts and
	// invalidations in place. The paper uses this mode to measure the
	// cache-lookup overhead (§6, Fig. 14 discussion: "forcing a cache miss
	// on every lookup... the performance difference to NoCache is
	// negligible").
	ForceMiss bool
	// Gzip builds a gzip content-encoding variant for each inserted page of
	// at least gzipMinBytes at insert time — compressed exactly once per
	// generation, byte-accounted with its entry, sharing the entry's
	// deps/TTL/epoch lifecycle — for the serve layer to negotiate per
	// request from Accept-Encoding. Variants that would not shrink the body
	// are discarded (identity only).
	Gzip bool
	// ETags precomputes a strong, content-derived validator per entry at
	// insert so conditional requests (If-None-Match) on hits are answered
	// 304 straight from the cache with zero body bytes.
	ETags bool
	// L2, when set, attaches a disk tier under the byte-budgeted L1:
	// eviction demotes entries (body, deps, remaining TTL) into the store
	// instead of discarding them, an insert the L1 budget refuses is spilled
	// there as a volatile record, an L1 miss probes the store and promotes
	// a hit back, and InvalidateWrite/Flush sweep both tiers before
	// returning, so the §3.2 contract holds for disk-resident pages too.
	// The dependency table stays the single source of truth across tiers.
	// The cache takes ownership of the store: Close spills resident pages
	// into it and closes it.
	L2 *l2.Store
}

// Page is the caller-facing view of one cached page: the stored body slice
// and content type, handed out by reference.
//
// Ownership contract: the body is copied exactly once, at Insert, and is
// immutable from then on. Lookup returns the stored slice itself — no
// per-hit copy — so callers must treat Page.Body as read-only. Mutating it
// is a data race and corrupts the cache for every later reader. Entries are
// only ever removed whole (invalidation, eviction, expiry, flush), never
// rewritten in place, so views returned before a removal stay valid and
// self-consistent for as long as the caller holds them.
type Page struct {
	Body        []byte
	ContentType string
	// Gzip is the entry's gzip content-encoding variant, compressed exactly
	// once at insert; nil when absent (Options.Gzip off, the body below
	// gzipMinBytes, or compression did not shrink it). Same shared
	// read-only contract as Body.
	Gzip []byte
	// ETag is the entry's strong validator, precomputed at insert
	// (RFC 7232 quoted form); "" when Options.ETags is off.
	ETag string
	// BodyLen and GzipLen are the decimal renderings of len(Body) and
	// len(Gzip), precomputed at insert so the serve path can set
	// Content-Length without a per-request allocation. "" when variant
	// metadata is off (both Options.Gzip and Options.ETags unset).
	BodyLen string
	GzipLen string
}

// entry is one stored page: the caller-facing view itself (so a hit hands it
// out without assembling anything), its dependency information and its
// accounting. Everything in it is fixed at insert — entries are only ever
// removed whole, never rewritten — so an *entry returned by get stays valid
// and self-consistent after a removal and may be read without any lock;
// holders must treat it as read-only.
type entry struct {
	Page
	Key string
	// Deps are the read-query instances the page was built from (template +
	// value vector, §3.1 "dependency info"). The cache takes ownership.
	Deps []analysis.Query
	// ExpiresAt, when non-zero, makes the entry invisible after this time.
	ExpiresAt time.Time
	// Cost is the accounted byte size charged against MaxBytes.
	Cost int64
	// l2lsn, when non-zero, is the LSN of the disk-tier record this entry
	// was promoted from. If the record is still current at demotion time
	// the body need not be rewritten to disk.
	l2lsn uint64
}

// Accounted per-entry overheads, approximating the Go-side cost of the maps,
// list elements and struct headers an entry occupies beyond its payload.
const (
	entryOverhead = 160 // Entry struct + page-table slot + list element
	depOverhead   = 96  // dependency-table instance + probe-index slots
)

// entryCost is the accounted byte size of one cached page: the body and key
// payloads plus the dependency information (template text and value vector)
// and fixed bookkeeping overheads.
func entryCost(key string, body []byte, deps []analysis.Query) int64 {
	cost := int64(entryOverhead) + int64(len(key)) + int64(len(body))
	for _, d := range deps {
		cost += depOverhead + int64(len(d.SQL)) + 16*int64(len(d.Args))
		for _, a := range d.Args {
			if s, ok := a.(string); ok {
				cost += int64(len(s))
			}
		}
	}
	return cost
}

// View is an exported snapshot of one cached entry for the cluster peer
// protocol: the page plus the dependency information and remaining
// freshness window a fetching node needs to insert a locally-invalidatable
// replica. Body and Deps are the stored slices shared by reference — both
// are immutable for the entry's lifetime and beyond (entries are removed
// whole, never rewritten), so holding a View across a removal is safe; the
// holder must treat them as read-only.
type View struct {
	Page
	// Deps are the read-query instances the page depends on (shared).
	Deps []analysis.Query
	// TTL is the remaining freshness window; 0 means the entry lives until
	// invalidated or evicted.
	TTL time.Duration
}

// RemoteInvalidator receives the cache's write-invalidation traffic for
// fan-out to cluster peers (§3.2 applied cluster-wide). The implementation
// returns only after every reachable peer has applied the invalidation, so
// InvalidateWrite keeps its contract — the writer's response is released
// strictly after all dependent pages, anywhere in the cluster, are gone.
//
// An implementation may also have the batch method
//
//	BroadcastWrites(ws []analysis.WriteCapture) error
//
// which forwards all of one request's captures as a single broadcast, with
// BroadcastWrite's error contract; the cluster node has it. SetRemote looks
// for it once. A remote without it gets one BroadcastWrite per capture, in
// capture order.
type RemoteInvalidator interface {
	// BroadcastWrite forwards a locally applied write capture to peers.
	// The cache ignores the returned error: by the time the broadcast runs
	// the local invalidation has succeeded, and a peer that missed it
	// cannot be helped by the writer — the implementation must heal it
	// instead (the cluster tier counts the miss and quarantine-flushes the
	// peer on rejoin).
	BroadcastWrite(w analysis.WriteCapture) error
	// BroadcastFlush forwards a full cache flush to peers, with the same
	// error contract as BroadcastWrite.
	BroadcastFlush() error
}

// batchInvalidator is the optional batch method of a RemoteInvalidator.
type batchInvalidator interface {
	BroadcastWrites(ws []analysis.WriteCapture) error
}

// remoteBox wraps the attached remote for atomic.Value (which needs a
// consistent concrete type), with its batch method when it has one.
type remoteBox struct {
	r     RemoteInvalidator
	batch batchInvalidator
}

// broadcastWrites sends one request's captures to peers: one batch
// broadcast when the remote has the method, else one per capture. Errors
// are ignored, as RemoteInvalidator allows.
func (b remoteBox) broadcastWrites(ws []analysis.WriteCapture) {
	if b.batch != nil {
		_ = b.batch.BroadcastWrites(ws)
		return
	}
	for _, w := range ws {
		_ = b.r.BroadcastWrite(w)
	}
}

// Stats are a cache's cumulative counters and current gauges.
type Stats struct {
	Hits             uint64
	Misses           uint64
	Inserts          uint64
	Invalidations    uint64 // entries removed by write invalidation
	Evictions        uint64 // entries removed by capacity pressure
	Expirations      uint64 // entries removed because their TTL passed
	WritesSeen       uint64 // write captures a sweep analysed (one per statement)
	AdmissionRejects uint64 // inserts refused by the TinyLFU admission filter
	OversizeRejects  uint64 // inserts refused because one entry exceeds MaxBytes
	Entries          int    // current entry count
	// DepTemplates counts the dependency-table templates holding at least
	// one instance; a template whose last page went stays registered, but
	// uncounted.
	DepTemplates int
	DepInstances int // current dependency-table (template, vector) count
	// Bytes is the accounted memory charged against MaxBytes: every linked
	// entry's cost plus in-flight insert reservations. With MaxBytes set it
	// never exceeds the budget.
	Bytes int64

	// Per-segment occupancy and eviction splits. In a bounded cache entries
	// start in probation and move to protected on first reuse; an unbounded
	// cache reports everything as probation. A growing EvictionsProtected
	// with a cold probation segment is the operator's signal that MaxBytes
	// is undersized for the working set (see docs/OPERATIONS.md).
	ProbationEntries   int
	ProtectedEntries   int
	ProbationBytes     int64 // linked entry cost only (reservations excluded)
	ProtectedBytes     int64
	EvictionsProbation uint64
	EvictionsProtected uint64

	// GzipCompressions counts gzip compressor runs — exactly one per
	// variant-building insert, never per request (the once-per-insert
	// contract of Options.Gzip).
	GzipCompressions uint64
	// VariantBytes is the resident gzip-variant payload (a subset of
	// Bytes): what the content-encoding variants currently cost on top of
	// the identity bodies.
	VariantBytes int64

	// Tier-movement counters, non-zero only with an attached L2 store.
	Demotions     uint64 // evictions that landed in the disk tier instead of discarding
	Spills        uint64 // inserts the L1 budget refused that landed in the disk tier instead (volatile)
	Promotions    uint64 // disk-tier hits admitted back into L1
	PromoteAborts uint64 // promotions abandoned because an invalidation raced them
	// L2 is the attached disk tier's own counters (zero without one).
	L2 l2.Stats
}

// Cache is the page cache. It is safe for concurrent use.
type Cache struct {
	opts Options
	mask uint32 // shard count - 1 (power of two)

	shards    []shard
	depShards []depShard
	// depSeed hashes template text to its dependency shard.
	depSeed maphash.Seed
	// reach lists, per write template, the dependency table's read
	// templates it can touch.
	reach *analysis.Reach[*depTemplate]

	// seq orders entries globally by recency; entries counts them across all
	// shards (including in-flight insert reservations).
	seq     atomic.Uint64
	entries atomic.Int64

	// bytesUsed is the byte-budget authority: the summed cost of linked
	// entries plus in-flight insert reservations, CAS-reserved before an
	// entry is built into the tables so the MaxBytes bound is never
	// exceeded, even transiently. variantBytes sums len(Gzip) over linked
	// entries.
	bytesUsed    atomic.Int64
	variantBytes atomic.Int64

	// epoch counts invalidation events (write sweeps and flushes, local or
	// peer-applied). It is bumped BEFORE the sweep starts, so an inserter
	// that observes an unchanged epoch across its generate+insert window
	// knows no sweep it could have raced has run yet — any later sweep will
	// see the inserted entry. An entry inserted while an invalidation swept
	// is discarded instead of served (§3.2 across the insert-after-read
	// window).
	epoch atomic.Uint64

	// recent retains the prepared write behind each recent epoch (nil for a
	// flush) so staleSince can test an inserter's dependency set against
	// exactly the sweeps that raced its window, instead of discarding on
	// every concurrent write. open holds the events whose callers have not
	// closed them yet (a write whose peer broadcast is still in flight),
	// keyed by epoch; openN counts them for the lock-free fast path.
	recentMu sync.Mutex
	recent   [recentWriteWindow]recentWrite
	open     map[uint64]*analysis.PreparedWrite
	openN    atomic.Int64

	// admit is the TinyLFU admission filter (nil unless Admission): touched
	// on every lookup, consulted when a reservation needs to evict.
	admit *tinylfu.Filter

	hits             atomic.Uint64
	misses           atomic.Uint64
	inserts          atomic.Uint64
	invalidations    atomic.Uint64
	evictions        atomic.Uint64
	evictionsProt    atomic.Uint64 // subset of evictions taken from the protected segment
	expirations      atomic.Uint64
	writesSeen       atomic.Uint64
	admissionRejects atomic.Uint64
	oversizeRejects  atomic.Uint64
	// gzipCompressions counts compressor runs (once per variant-building
	// insert).
	gzipCompressions atomic.Uint64
	demotions        atomic.Uint64
	spills           atomic.Uint64
	promotions       atomic.Uint64
	promoteAborts    atomic.Uint64
	// flushing counts in-progress FlushLocal sweeps. While it is non-zero,
	// evictions discard instead of demoting and promotions abort instead of
	// linking: either could otherwise carry a pre-flush page across the gap
	// between the L1 sweep and the disk-tier flush and resurrect it after the
	// flush has returned.
	flushing atomic.Int32

	// remote, when set, fans invalidation traffic out to cluster peers.
	remote atomic.Value // remoteBox
}

// New creates a cache. Options.Engine must be set; New is the one place the
// composition rules of the governance options are checked.
func New(opts Options) (*Cache, error) {
	if opts.Engine == nil {
		return nil, fmt.Errorf("cache: Options.Engine is required")
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.MaxBytes < 0 {
		return nil, fmt.Errorf("cache: negative MaxBytes")
	}
	if opts.Admission && opts.MaxBytes <= 0 {
		return nil, fmt.Errorf("cache: Admission requires MaxBytes (the filter gates byte-budget pressure)")
	}
	if opts.Shards < 0 {
		return nil, fmt.Errorf("cache: negative Shards")
	}
	n := shardCount(opts.Shards)
	c := &Cache{
		opts:      opts,
		mask:      uint32(n - 1),
		shards:    make([]shard, n),
		depShards: make([]depShard, n),
		depSeed:   maphash.MakeSeed(),
		reach:     analysis.NewReach[*depTemplate](opts.Engine),
		open:      make(map[uint64]*analysis.PreparedWrite),
	}
	if opts.Admission {
		// Track roughly as many keys as the cache can plausibly hold.
		c.admit = tinylfu.New(int(min(opts.MaxBytes/assumedEntryBytes, 1<<20)))
	}
	for i := range c.shards {
		c.shards[i].items = make(map[string]*node)
		c.shards[i].links = make(map[string][]*depInstance)
	}
	for i := range c.depShards {
		c.depShards[i].deps = make(map[string]*depTemplate)
	}
	if opts.L2 != nil {
		c.attachL2()
	}
	return c, nil
}

// Engine returns the cache's analysis engine.
func (c *Cache) Engine() *analysis.Engine { return c.opts.Engine }

// ForceMiss reports whether the cache is in the forced-miss measurement
// mode (every Lookup misses). Interposition layers use it to disable
// optimisations — like single-flight miss coalescing — that would skip the
// handler executions the mode exists to measure.
func (c *Cache) ForceMiss() bool { return c.opts.ForceMiss }

// SetRemote attaches the cluster peer tier: from now on InvalidateWrite and
// Flush also broadcast to peers (a nil r detaches). Peers applying a
// received broadcast must use InvalidateWriteLocal / FlushLocal, or the
// invalidation would echo around the cluster forever.
func (c *Cache) SetRemote(r RemoteInvalidator) {
	b := remoteBox{r: r}
	b.batch, _ = r.(batchInvalidator)
	c.remote.Store(b)
}

// loadRemote returns the attached peer tier; its r is nil when none is.
func (c *Cache) loadRemote() remoteBox {
	b, _ := c.remote.Load().(remoteBox)
	return b
}

// Lookup returns the cached page for key, if present and not expired
// (§3.1 "cache checks"). The returned Page is a zero-copy view of the
// stored entry: its body is shared and immutable (see Page), so the hit
// path performs no allocation.
func (c *Cache) Lookup(key string) (Page, bool) {
	e, ok := c.lookup(key)
	if !ok {
		return Page{}, false
	}
	return e.Page, true
}

// lookup is get extended with the disk tier: an L1 miss probes L2 and
// promotes a hit back into L1 (see promote). The L1 hit path is untouched —
// with or without a disk tier attached it stays allocation-free. A promoted
// serve still counts as an L1 miss; the disk tier's own hit counter records
// the tier that answered.
func (c *Cache) lookup(key string) (*entry, bool) {
	e, ok := c.get(key)
	if !ok && c.opts.L2 != nil && !c.opts.ForceMiss {
		return c.promote(key)
	}
	return e, ok
}

// Export returns the full stored entry for key — page, dependency info and
// remaining TTL — for serving a cluster peer's fetch. It counts as a hit
// (a remote fetch is a read of this node's cache) and refreshes recency
// like Lookup. The returned View shares the stored immutable slices; see
// View for the ownership contract.
func (c *Cache) Export(key string) (View, bool) {
	e, ok := c.lookup(key)
	if !ok {
		return View{}, false
	}
	v := View{Page: e.Page, Deps: e.Deps}
	if !e.ExpiresAt.IsZero() {
		// At the expiry instant the entry is still visible, but a TTL of 0
		// would read as "never expires" on the fetching node: report a miss.
		if v.TTL = e.ExpiresAt.Sub(c.opts.Clock()); v.TTL <= 0 {
			return View{}, false
		}
	}
	return v, true
}

// Insert stores a page with its dependency information (§3.1 "cache
// inserts"). ttl > 0 arms an expiry (TTL consistency / semantic windows);
// ttl == 0 means the entry lives until invalidated or evicted.
//
// The body is copied exactly once, here; the stored copy is what every
// later Lookup hands out by reference, and Insert returns the same
// immutable view so the inserting request can serve (or share) the stored
// bytes without a second copy. The cache takes ownership of deps — the
// caller must not retain or mutate the slice (or its Args vectors) after
// the call.
//
// Under byte governance the memory tier may refuse the insert — the page is
// oversize, or the admission filter sides with the eviction victim — and
// the page then goes to the disk tier, if one is attached, or is not
// cached. The returned view is still immutable and servable either way;
// callers that need to know use TryInsert.
func (c *Cache) Insert(key string, body []byte, contentType string, deps []analysis.Query, ttl time.Duration) Page {
	pg, _ := c.TryInsert(key, body, contentType, deps, ttl)
	return pg
}

// TryInsert is Insert reporting whether the page was actually stored, in
// either tier. stored=false means the byte budget refused it — the entry
// costs more than MaxBytes, or the admission filter judged it colder than
// every eviction victim it would displace — and no disk tier took it
// instead. The returned Page wraps this call's private immutable copy of
// body in that case, so it is servable and shareable regardless — the page
// just will not be found by later lookups.
func (c *Cache) TryInsert(key string, body []byte, contentType string, deps []analysis.Query, ttl time.Duration) (Page, bool) {
	var expiresAt time.Time
	if ttl > 0 {
		expiresAt = c.opts.Clock().Add(ttl)
	}
	e := c.newEntry(key, Page{Body: append([]byte(nil), body...), ContentType: contentType}, deps, expiresAt)
	return e.Page, c.insert(e)
}

// newEntry builds the stored entry for a page. Variants are built on the
// private body copy before costing, so the gzip payload and validator
// strings are charged against MaxBytes with the rest of the entry.
func (c *Cache) newEntry(key string, pg Page, deps []analysis.Query, expiresAt time.Time) entry {
	c.buildVariants(&pg)
	return entry{
		Page:      pg,
		Key:       key,
		Deps:      deps,
		ExpiresAt: expiresAt,
		Cost:      entryCost(key, pg.Body, deps) + variantCost(&pg),
	}
}

// InvalidateWrite removes every cached page whose dependency set intersects
// one of the writes (§3.1 "cache invalidations") — all the captures of one
// request, in one sweep — then broadcasts them to the attached cluster
// peers, if any, as one broadcast (§3.2 cluster-wide: in strong mode the
// call returns only after every reachable peer has also invalidated). Every
// write stays open until the broadcast returns: until peers have applied
// them, the cache refuses every insert they intersect — a generated page, a
// replica fetched from a peer that has not applied them yet, or one offered
// by such a peer. It returns the number of pages invalidated locally. Each
// write should have been captured with Engine.CaptureWrite before it
// executed.
//
// A capture the engine cannot analyse (an empty one marks a write the
// recorder could not capture), or a sweep that fails (an analysis error, a
// disk tier that cannot make the removals durable), makes the call flush
// the whole cache instead — over-invalidation is always sound — and
// broadcast that one flush in place of the writes. The count then includes
// the flushed pages, and err says why the call fell back; the cache is
// consistent either way.
func (c *Cache) InvalidateWrite(ws ...analysis.WriteCapture) (int, error) {
	return c.invalidate(ws, c.loadRemote())
}

// InvalidateWriteLocal is InvalidateWrite restricted to this process's
// cache — no peer broadcast, and a fallback flush that stays local too. It
// is the entry point for invalidations that arrive FROM a peer
// (broadcasting those again would echo forever) and for callers that manage
// fan-out themselves.
func (c *Cache) InvalidateWriteLocal(ws ...analysis.WriteCapture) (int, error) {
	return c.invalidate(ws, remoteBox{})
}

// invalidate sweeps ws in one pass, broadcasting them to b's remote, if any,
// with their events open, and falls back to a flush (broadcast likewise)
// when the sweep fails.
func (c *Cache) invalidate(ws []analysis.WriteCapture, b remoteBox) (int, error) {
	var then func()
	if b.r != nil {
		// The local sweep runs first; the broadcast's error is ignored, as
		// RemoteInvalidator allows.
		then = func() { b.broadcastWrites(ws) }
	}
	n, err := c.invalidateThen(ws, then)
	if err != nil {
		n += c.Len()
		c.flush(b.r)
	}
	return n, err
}

// Flush empties the cache, then broadcasts the flush to the attached
// cluster peers, if any. The flush stays open until the broadcast returns,
// refusing every guarded insert until peers have applied it. Pages inserted
// by unguarded calls concurrently with the flush may survive, as they would
// had they been inserted just after it.
func (c *Cache) Flush() { c.flush(c.loadRemote().r) }

// FlushLocal empties this process's cache without broadcasting — the entry
// point for flushes arriving from a peer.
func (c *Cache) FlushLocal() { c.flush(nil) }

// flush empties both tiers, then broadcasts to r, if any, with the flush's
// event still open.
func (c *Cache) flush(r RemoteInvalidator) {
	// The flushing flag closes the tier-crossing races for the duration of
	// the two-phase sweep: an eviction demoting a pre-flush page after the
	// L1 sweep, or a promotion re-linking a disk copy into an already-swept
	// shard, would carry that page past the flush. While the flag is up,
	// demotions degrade to removals and promotions abort; the shard locks
	// order every such transition against the sweep below, so a transition
	// that ran before the flag was visible is cleaned up by whichever phase
	// comes after it.
	c.flushing.Add(1)
	defer c.flushing.Add(-1)
	defer c.closeEvent(c.openEvent(nil))
	c.clear(false)
	if c.opts.L2 != nil {
		// Disk tier second: any demotion that slipped in ahead of the flag
		// left its L1 entry removed above and its disk copy dies here, with
		// the flush marker made durable before FlushAll returns.
		if dropped, err := c.opts.L2.FlushAll(); err == nil {
			c.forget(dropped)
		}
	}
	if r != nil {
		_ = r.BroadcastFlush() // ignored, as RemoteInvalidator allows
	}
}

// InsertSince is TryInsert under the §3.2 read→insert guard for a page whose
// generation — or, for a replica, whose peer round trip — began at epoch0
// (read from Epoch before the first of its reads). It is the one freshness
// check for every page the cache takes: generated pages and fragments,
// replicas fetched from a peer and replicas a peer offers. fresh=false means
// an invalidation the page depends on raced the generation or the insert, or
// is still open: the page is not in the cache and must not be shared or
// replicated, only served to the request that generated it — its read
// preceded the write. stored reports that the page is in the cache: fresh
// and not refused by the byte budget. Semantic-window pages (ttl > 0) are
// exempt — they carry no dependencies and tolerate staleness by contract.
//
// Pre-insert: a sweep intersecting deps already ran during the reads, so the
// page is known-stale and never inserted (pg is zero) — no reader sees it,
// no eviction victim pays for it. Post-insert: a sweep racing the insert
// itself may have scanned before the entry linked, so the key is removed
// again (over-invalidation is sound; the removal is a no-op when the budget
// refused the insert).
func (c *Cache) InsertSince(epoch0 uint64, key string, body []byte, contentType string, deps []analysis.Query, ttl time.Duration) (pg Page, stored, fresh bool) {
	if ttl > 0 {
		pg, stored = c.TryInsert(key, body, contentType, deps, ttl)
		return pg, stored, true
	}
	if c.staleSince(epoch0, deps) {
		return Page{}, false, false
	}
	pg, stored = c.TryInsert(key, body, contentType, deps, ttl)
	if c.staleSince(epoch0, deps) {
		c.InvalidateKey(key)
		return pg, false, false
	}
	return pg, stored, true
}
