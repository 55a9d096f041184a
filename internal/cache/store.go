package cache

// The governed store: the payload-agnostic core under the page cache. The
// paper's cache is one structure — a key table plus a dependency table keyed
// by read-query template and value vector (§3.1). Store[V] is that structure:
// the lock-striped key table, the template -> instance -> probe-index
// dependency table, the byte budget with CAS reservation, segmented
// (probation/protected) LRU eviction, TinyLFU admission, TTL expiry, the
// write sweep, flush, and the epoch ring that closes the read->insert window
// (§3.2). The page cache (Cache) is its one instantiation; what V is never
// matters here.
//
// Lock order is always key shard -> dependency shard, never the reverse, and
// no two shards of the same stripe are held at once.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache/l2"
	"autowebcache/internal/datasource"
	"autowebcache/internal/tinylfu"
)

// assumedEntryBytes sizes the admission filter when only the byte bound is
// known: it tracks roughly MaxBytes/assumedEntryBytes keys, a small page
// each.
const assumedEntryBytes = 4096

// Item is the immutable part of one stored entry. Everything in it is fixed
// at insert — entries are only ever removed whole, never rewritten — so an
// *Item returned by Get stays valid and self-consistent after a removal and
// may be read without any lock; holders must treat it as read-only.
type Item[V any] struct {
	Key string
	Val V
	// Deps are the read-query instances the value was built from (template
	// + value vector, §3.1 "dependency info"). The store takes ownership.
	Deps []analysis.Query
	// ExpiresAt, when non-zero, makes the entry invisible after this time.
	ExpiresAt time.Time
	// Cost is the accounted byte size charged against MaxBytes.
	Cost int64
	// Extra is the part of Cost the owner wants totalled separately (the page
	// cache's gzip variants); the store only sums it over linked entries.
	Extra int64
}

// node is a linked entry: the item plus its replacement state, intrusively
// chained into one of its shard's segments.
type node[V any] struct {
	Item[V]
	prev, next *node[V]
	// seq is the entry's position in the global recency order: assigned
	// from the store-wide sequence at insert and refreshed on every hit of
	// a bounded store. Within a segment the globally-minimal seq is the
	// victim, even though each shard keeps its own lists.
	seq uint64
	// protected marks the segment: false = probation (new insert, first
	// eviction tier), true = protected (promoted on first hit, evicted only
	// when probation is empty).
	protected bool
}

// segment is an intrusive list of nodes in eviction order: front = the
// shard's next victim.
type segment[V any] struct {
	front, back *node[V]
	len         int
}

func (l *segment[V]) pushBack(n *node[V]) {
	n.prev, n.next = l.back, nil
	if l.back != nil {
		l.back.next = n
	} else {
		l.front = n
	}
	l.back = n
	l.len++
}

func (l *segment[V]) remove(n *node[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.front = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.back = n.prev
	}
	l.len--
}

// shard is one stripe of the key table with its replacement segments.
type shard[V any] struct {
	mu    sync.Mutex
	items map[string]*node[V]
	order segment[V] // probation
	// prot is the protected segment, populated only in a bounded store.
	prot segment[V]
	// bytes is the summed cost of the entries linked into the shard
	// (in-flight insert reservations are carried by the store-wide counter
	// only); protBytes is the subset linked into the protected segment.
	bytes     atomic.Int64
	protBytes atomic.Int64
}

func (sh *shard[V]) segment(protected bool) *segment[V] {
	if protected {
		return &sh.prot
	}
	return &sh.order
}

// depInstance is one row of the dependency table's value-vector level: a
// concrete read-query instance and the keys built from it. Most instances
// back exactly one key, so the first is held inline and the set is only
// allocated for a second.
type depInstance struct {
	query analysis.Query
	one   bool // key is linked
	key   string
	more  map[string]bool // further keys
}

func (inst *depInstance) add(key string) {
	switch {
	case inst.one && inst.key == key:
	case !inst.one && len(inst.more) == 0:
		inst.one, inst.key = true, key
	case inst.more == nil:
		inst.more = map[string]bool{key: true}
	default:
		inst.more[key] = true
	}
}

// remove unlinks key, reporting whether the instance is now empty.
func (inst *depInstance) remove(key string) (empty bool) {
	if inst.one && inst.key == key {
		inst.one = false
	} else {
		delete(inst.more, key)
	}
	return !inst.one && len(inst.more) == 0
}

// keys lists the linked keys.
func (inst *depInstance) keys() []string {
	out := make([]string, 0, 1+len(inst.more))
	if inst.one {
		out = append(out, inst.key)
	}
	for key := range inst.more {
		out = append(out, key)
	}
	return out
}

// depTemplate groups the instances of one read-query template, with a probe
// index per table: instances keyed by the value their `table.col = ?`
// predicate binds. A write whose effect on that column is bounded only
// needs to test the matching instances — the result-caching optimisation
// the paper relies on for near-zero run-time analysis overhead (§7).
type depTemplate struct {
	info      *analysis.TemplateInfo // nil when the template is unparseable
	instances map[string]*depInstance
	// probeIdx: table -> probe key -> argsKey -> instance.
	probeIdx map[string]map[string]map[string]*depInstance
}

// probeKeyFor returns the probe key of an instance for one table's probe,
// or ok=false when the instance has no value at the probed argument.
func probeKeyFor(p analysis.Probe, args []datasource.Value) (string, bool) {
	if p.ArgIndex < 0 || p.ArgIndex >= len(args) {
		return "", false
	}
	return analysis.ProbeKey(args[p.ArgIndex]), true
}

// addInstance registers an instance in the probe indexes.
func (dt *depTemplate) addInstance(argsKey string, inst *depInstance) {
	dt.instances[argsKey] = inst
	if dt.info == nil {
		return
	}
	for table, p := range dt.info.Probes {
		key, ok := probeKeyFor(p, inst.query.Args)
		if !ok {
			continue
		}
		byKey := dt.probeIdx[table]
		if byKey == nil {
			byKey = make(map[string]map[string]*depInstance)
			dt.probeIdx[table] = byKey
		}
		byArgs := byKey[key]
		if byArgs == nil {
			byArgs = make(map[string]*depInstance)
			byKey[key] = byArgs
		}
		byArgs[argsKey] = inst
	}
}

// removeInstance unregisters an instance from the probe indexes.
func (dt *depTemplate) removeInstance(argsKey string, inst *depInstance) {
	delete(dt.instances, argsKey)
	if dt.info == nil {
		return
	}
	for table, p := range dt.info.Probes {
		key, ok := probeKeyFor(p, inst.query.Args)
		if !ok {
			continue
		}
		if byArgs := dt.probeIdx[table][key]; byArgs != nil {
			delete(byArgs, argsKey)
			if len(byArgs) == 0 {
				delete(dt.probeIdx[table], key)
			}
		}
	}
}

// depShard is one stripe of the dependency table.
type depShard struct {
	mu sync.Mutex
	// deps: template SQL -> template group (instances + probe indexes).
	deps map[string]*depTemplate
}

// The lower-tier seam. A tier beneath the store (the page cache's disk tier)
// takes part in the store's transitions through exactly four calls: demote
// offers an eviction victim to the tier, tier.Remove drops the tier's copy of
// a key during a sweep, tier.Deps tells forget which links the tier's
// current record still needs, and tier.Sync makes every Remove so far
// durable before a sweep returns, so a crash cannot resurrect what it
// removed. Every call but Sync is made with the key's shard lock held, which
// is what orders a promotion against a racing sweep (see Store.adopt). Both
// fields are nil unless the page cache attaches a disk tier (attachL2).

// Store is the governed, dependency-indexed store. It is safe for concurrent
// use.
type Store[V any] struct {
	opts Options
	mask uint32 // shard count - 1 (power of two)

	shards    []shard[V]
	depShards []depShard
	tier      *l2.Store
	// demote writes an eviction victim into tier; only it knows what a V is.
	// kept=true means the tier now holds the entry, so the store keeps its
	// dependency links — the dependency table stays the single source of
	// truth for both tiers. dropped are keys the tier pushed out to make room.
	demote func(it *Item[V]) (kept bool, dropped []l2.Dropped)

	// seq orders entries globally by recency; entries counts them across all
	// shards (including in-flight insert reservations).
	seq     atomic.Uint64
	entries atomic.Int64

	// bytesUsed is the byte-budget authority: the summed cost of linked
	// entries plus in-flight insert reservations, CAS-reserved before an
	// entry is built into the tables so the MaxBytes bound is never
	// exceeded, even transiently. extra sums Item.Extra over linked entries.
	bytesUsed atomic.Int64
	extra     atomic.Int64

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
}

// NewStore creates a store from the governance fields of opts: Engine,
// MaxBytes, Admission, Shards, Clock and ForceMiss. It is the one place
// their composition rules are checked; New returns its error.
func NewStore[V any](opts Options) (*Store[V], error) {
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
	s := &Store[V]{
		opts:      opts,
		mask:      uint32(n - 1),
		shards:    make([]shard[V], n),
		depShards: make([]depShard, n),
		open:      make(map[uint64]*analysis.PreparedWrite),
	}
	if opts.Admission {
		// Track roughly as many keys as the store can plausibly hold.
		s.admit = tinylfu.New(int(min(opts.MaxBytes/assumedEntryBytes, 1<<20)))
	}
	for i := range s.shards {
		s.shards[i].items = make(map[string]*node[V])
	}
	for i := range s.depShards {
		s.depShards[i].deps = make(map[string]*depTemplate)
	}
	return s, nil
}

// maxShards caps the shard count; beyond this the per-shard maps stop
// paying for themselves.
const maxShards = 256

// shardCount rounds requested up to a power of two in [1, maxShards]; 0
// picks GOMAXPROCS rounded likewise, so caches built at server start get one
// shard per P.
func shardCount(requested int) int {
	n := requested
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := 1
	for p < n && p < maxShards {
		p <<= 1
	}
	return p
}

// shardHash is FNV-1a over s, inlined so hot paths allocate nothing.
func shardHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (s *Store[V]) shard(key string) *shard[V] {
	return &s.shards[shardHash(key)&s.mask]
}

func (s *Store[V]) depShard(tmpl string) *depShard {
	return &s.depShards[shardHash(tmpl)&s.mask]
}

// Get returns the live entry for key: it expires the entry if its TTL
// passed, refreshes its recency, and maintains the counters. The hit path
// performs no allocation.
func (s *Store[V]) Get(key string) (*Item[V], bool) {
	// Every lookup — hit or miss — feeds the admission filter's frequency
	// estimate, so a key's popularity is known before it is ever inserted.
	if s.admit != nil {
		s.admit.Touch(tinylfu.HashString(key))
	}
	sh := s.shard(key)
	sh.mu.Lock()
	n, present := sh.items[key]
	if !present || s.opts.ForceMiss {
		sh.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	if !n.ExpiresAt.IsZero() && s.opts.Clock().After(n.ExpiresAt) {
		s.remove(sh, n, false)
		sh.mu.Unlock()
		s.expirations.Add(1)
		s.misses.Add(1)
		return nil, false
	}
	if s.opts.MaxBytes > 0 {
		// Recency only matters when eviction can happen; an unbounded store
		// never consults the order, so it skips the sequence tick. A hit
		// moves the entry to the back of the protected segment, promoting it
		// out of probation on its first reuse.
		sh.segment(n.protected).remove(n)
		if !n.protected {
			n.protected = true
			sh.protBytes.Add(n.Cost)
		}
		sh.prot.pushBack(n)
		n.seq = s.seq.Add(1)
	}
	sh.mu.Unlock()
	s.hits.Add(1)
	return &n.Item, true
}

// Contains reports whether key is stored (without touching recency state or
// hit/miss counters). Expired entries report false.
func (s *Store[V]) Contains(key string) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n, ok := sh.items[key]
	return ok && (n.ExpiresAt.IsZero() || !s.opts.Clock().After(n.ExpiresAt))
}

// Insert stores an entry, reporting whether it was actually stored.
// false means the byte budget refused it: it costs more than MaxBytes, or
// the admission filter judged it colder than every eviction victim it would
// displace.
func (s *Store[V]) Insert(it Item[V]) bool {
	sh := s.shard(it.Key)
	// Replacing a resident key happens atomically under the shard lock,
	// reusing the old entry's count AND its byte budget: only the
	// cost delta is charged (before the old entry is unlinked, so at no
	// instant is the key's budget released for a concurrent reservation to
	// steal), the key never transiently vanishes for concurrent lookups,
	// and a same-size regeneration at full budget needs no eviction, no
	// admission duel, no innocent victim.
	sh.mu.Lock()
	if old, exists := sh.items[it.Key]; exists {
		delta := it.Cost - old.Cost
		if delta <= 0 || s.chargeBytes(delta) {
			s.unlink(sh, old, false)
			if delta < 0 {
				s.bytesUsed.Add(delta)
			}
			s.link(sh, &node[V]{Item: it})
			sh.mu.Unlock()
			return true
		}
		// The replacement outgrows the resident entry plus the free budget
		// and needs eviction (or is oversize): release the old entry, then
		// take the slow path. The old entry staying gone is correct — it
		// held the content this call is replacing.
		s.remove(sh, old, false)
	}
	sh.mu.Unlock()
	if !s.reserve(it.Key, it.Cost) {
		return false
	}
	s.commit(it)
	return true
}

// reserve claims the byte budget for one entry of the given cost, evicting
// as needed, before the entry touches any table: the first half of a
// two-phase insert. true must be followed by commit (or a rollback of the
// claimed bytes and count, as adopt does); false holds no reservation.
func (s *Store[V]) reserve(key string, cost int64) bool {
	if !s.reserveBytes(cost, key) {
		return false
	}
	s.entries.Add(1)
	return true
}

// commit links an entry whose budget reserve claimed, displacing whatever a
// concurrent insert of the same key linked meanwhile.
func (s *Store[V]) commit(it Item[V]) {
	sh := s.shard(it.Key)
	sh.mu.Lock()
	if cur, exists := sh.items[it.Key]; exists {
		s.remove(sh, cur, false)
	}
	s.link(sh, &node[V]{Item: it})
	sh.mu.Unlock()
}

// adopt links an entry read back from the lower tier — the promotion half of
// the tier seam. Unlike commit it never displaces a resident entry (which is
// at least as fresh as the tier's copy), and it links only if current()
// still holds once the key's shard lock is taken: every sweep removes a key
// from both tiers under that lock, so a promotion racing one either linked
// early enough for the sweep to remove it, or sees the tier's copy retired
// and aborts. It returns the entry to serve — nil when aborted — and whether
// it is the adopted one, now linked. An entry the budget refuses is still
// returned for serving; it just stays resident below.
func (s *Store[V]) adopt(it Item[V], current func() bool) (serve *Item[V], linked bool) {
	sh := s.shard(it.Key)
	sh.mu.Lock()
	cur, resident := sh.items[it.Key]
	sh.mu.Unlock()
	if resident {
		// A concurrent insert or promotion landed first: no victim pays for
		// a reservation that would only be rolled back.
		return &cur.Item, false
	}
	n := &node[V]{Item: it}
	if !s.reserve(it.Key, it.Cost) {
		return &n.Item, false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, resident = sh.items[it.Key]
	if !resident && current() {
		s.linkNode(sh, n)
		return &n.Item, true
	}
	s.bytesUsed.Add(-it.Cost)
	s.entries.Add(-1)
	if resident {
		return &cur.Item, false
	}
	return nil, false
}

// link links a fresh entry (whose count and byte cost are already
// accounted) and retires the lower tier's now-outdated copy of the key, so a
// crash before the new entry is ever demoted cannot roll the key back to the
// older value. That Remove is not synced: losing it in a crash merely
// re-exposes a value that was never invalidated. The retired copy's
// dependency links go with it, before the new entry links its own, so the
// instances the two generations share stay linked. The caller holds sh.mu.
func (s *Store[V]) link(sh *shard[V], n *node[V]) {
	if s.tier != nil {
		if deps, was := s.tier.Remove(n.Key); was {
			s.unlinkDeps(n.Key, deps)
		}
	}
	s.linkNode(sh, n)
	s.inserts.Add(1)
}

// linkNode links n into the shard and the dependency table. New entries
// always start in the probation segment. The caller holds sh.mu.
func (s *Store[V]) linkNode(sh *shard[V], n *node[V]) {
	n.seq = s.seq.Add(1)
	sh.items[n.Key] = n
	sh.order.pushBack(n)
	sh.bytes.Add(n.Cost)
	s.extra.Add(n.Extra)
	for _, d := range n.Deps {
		s.addDep(d, n.Key)
	}
}

// unlink removes n from its shard's table and segments — and, unless
// keepDeps, from the dependency table — WITHOUT touching the store-wide
// budgets: the replacement fast path hands the old entry's budget directly
// to its successor. The caller holds sh.mu.
func (s *Store[V]) unlink(sh *shard[V], n *node[V], keepDeps bool) {
	sh.segment(n.protected).remove(n)
	if n.protected {
		sh.protBytes.Add(-n.Cost)
	}
	sh.bytes.Add(-n.Cost)
	s.extra.Add(-n.Extra)
	delete(sh.items, n.Key)
	if !keepDeps {
		s.unlinkDeps(n.Key, n.Deps)
	}
}

// remove is unlink plus the release of the entry's count and byte cost.
// keepDeps is set when the lower tier took the entry over.
func (s *Store[V]) remove(sh *shard[V], n *node[V], keepDeps bool) {
	s.unlink(sh, n, keepDeps)
	s.bytesUsed.Add(-n.Cost)
	s.entries.Add(-1)
}

// chargeBytes claims cost bytes of the budget only if they fit without
// eviction, reporting success. Safe to call while holding a shard lock —
// it touches nothing but the atomic counter (unlike reserveBytes, whose
// eviction scan locks shards).
func (s *Store[V]) chargeBytes(cost int64) bool {
	max := s.opts.MaxBytes
	if max <= 0 {
		s.bytesUsed.Add(cost)
		return true
	}
	for {
		n := s.bytesUsed.Load()
		if n+cost > max {
			return false
		}
		if s.bytesUsed.CompareAndSwap(n, n+cost) {
			return true
		}
	}
}

// reserveBytes claims cost bytes of the MaxBytes budget for key's entry,
// evicting LRU victims until the reservation fits. It returns false
// — and holds no reservation — when the entry can never fit (cost >
// MaxBytes) or when the admission filter sides with a victim: the candidate
// must beat every victim it would displace, so one-hit wonders cannot churn
// the hot set. The claimed bytes are credited back by remove.
func (s *Store[V]) reserveBytes(cost int64, key string) bool {
	if s.opts.MaxBytes > 0 && cost > s.opts.MaxBytes {
		s.oversizeRejects.Add(1)
		return false
	}
	for !s.chargeBytes(cost) {
		v := s.pickVictim()
		if v.shard == nil {
			// Every accounted byte belongs to an in-flight insert; let them
			// link so victims exist.
			runtime.Gosched()
			continue
		}
		if s.admit != nil && !s.admit.Admit(tinylfu.HashString(key), tinylfu.HashString(v.key)) {
			s.admissionRejects.Add(1)
			return false
		}
		s.evictPick(v)
	}
	return true
}

// addDep registers one (template, vector) -> key link. The caller holds the
// key's shard lock (or is single-threaded); the dependency shard lock nests
// inside it.
func (s *Store[V]) addDep(d analysis.Query, key string) {
	ds := s.depShard(d.SQL)
	ds.mu.Lock()
	dt := ds.deps[d.SQL]
	if dt == nil {
		// The template info (and its probe predicates) is memoised in the
		// engine; an unparseable template degrades to unindexed (nil info).
		info, _ := s.opts.Engine.Template(d.SQL)
		dt = &depTemplate{
			info:      info,
			instances: make(map[string]*depInstance),
			probeIdx:  make(map[string]map[string]map[string]*depInstance),
		}
		ds.deps[d.SQL] = dt
	}
	ak := datasource.KeyOfValues(d.Args)
	inst := dt.instances[ak]
	if inst == nil {
		inst = &depInstance{query: d}
		dt.addInstance(ak, inst)
	}
	inst.add(key)
	ds.mu.Unlock()
}

// unlinkDeps clears key's links from the given dependency instances,
// dropping instances (and templates) that no longer back any key. Called
// with the key's shard lock held; dependency shard locks nest inside.
func (s *Store[V]) unlinkDeps(key string, deps []analysis.Query) {
	for _, d := range deps {
		ds := s.depShard(d.SQL)
		ds.mu.Lock()
		if dt := ds.deps[d.SQL]; dt != nil {
			ak := datasource.KeyOfValues(d.Args)
			if inst := dt.instances[ak]; inst != nil {
				if inst.remove(key) {
					dt.removeInstance(ak, inst)
				}
				if len(dt.instances) == 0 {
					delete(ds.deps, d.SQL)
				}
			}
		}
		ds.mu.Unlock()
	}
}

// InvalidateWrite removes every entry whose dependency set intersects one
// of the writes (§3.1 "cache invalidations"), in this store and the tier
// beneath it, and returns how many. It returns only after every dependent
// entry fully inserted before the call is gone, so the writer's response is
// released strictly after the invalidation (§3.2). Each write should have
// been captured with Engine.CaptureWrite before it executed.
func (s *Store[V]) InvalidateWrite(ws ...analysis.WriteCapture) (int, error) {
	return s.invalidateThen(ws, nil)
}

// invalidateThen is InvalidateWrite running then — the caller's peer
// broadcast — once, after a successful sweep of every write, with every
// write's event still open: until then returns, staleSince refuses every
// insert any of the writes intersects, whenever its epoch was read. If a
// write cannot be prepared, nothing is swept and no event opens; with no
// writes, nothing happens at all.
func (s *Store[V]) invalidateThen(ws []analysis.WriteCapture, then func()) (int, error) {
	if len(ws) == 0 {
		return 0, nil
	}
	pws := make([]*analysis.PreparedWrite, len(ws))
	for i, w := range ws {
		pw, err := s.opts.Engine.PrepareWrite(w)
		if err != nil {
			return 0, err
		}
		pws[i] = pw
	}
	s.writesSeen.Add(uint64(len(ws)))
	// Each epoch bump precedes the sweep (see the epoch field); the prepared
	// writes are retained so staleSince can test raced inserts precisely.
	for _, pw := range pws {
		defer s.closeEvent(s.openEvent(pw))
	}
	// ColumnOnly deliberately ignores bound values, so the value-based
	// probe index must not narrow its candidate set.
	useProbes := s.opts.Engine.Strategy() != analysis.StrategyColumnOnly

	// Snapshot the dependency instances shard by shard, then run the
	// intersection tests outside all locks so concurrent lookups are not
	// serialised behind the analysis.
	type candidate struct {
		pw    *analysis.PreparedWrite
		query analysis.Query
		keys  []string
	}
	var candidates []candidate
	collect := func(pw *analysis.PreparedWrite, inst *depInstance) {
		candidates = append(candidates, candidate{pw: pw, query: inst.query, keys: inst.keys()})
	}
	for i := range s.depShards {
		ds := &s.depShards[i]
		ds.mu.Lock()
		for tmpl, dt := range ds.deps {
			for j, pw := range pws {
				dep, derr := s.opts.Engine.PossiblyDependent(tmpl, ws[j].SQL)
				if derr != nil {
					ds.mu.Unlock()
					return 0, derr
				}
				if !dep {
					continue
				}
				if useProbes && dt.info != nil {
					if p, hasProbe := dt.info.Probes[pw.Table()]; hasProbe {
						if probeKeys, bounded := pw.ProbeKeys(p.Col); bounded {
							seen := make(map[*depInstance]bool)
							for _, pk := range probeKeys {
								for _, inst := range dt.probeIdx[pw.Table()][pk] {
									if !seen[inst] {
										seen[inst] = true
										collect(pw, inst)
									}
								}
							}
							continue
						}
					}
				}
				// Every instance would be a candidate: one template-level
				// verdict may rule them all out at once (an INSERT's fresh
				// key joined on, say).
				if len(dt.instances) > 1 {
					excluded, derr := pw.ExcludesTemplate(tmpl)
					if derr != nil {
						ds.mu.Unlock()
						return 0, derr
					}
					if excluded {
						continue
					}
				}
				for _, inst := range dt.instances {
					collect(pw, inst)
				}
			}
		}
		ds.mu.Unlock()
	}

	victims := make(map[string]bool)
	for _, cand := range candidates {
		hit, err := cand.pw.Intersects(cand.query)
		if err != nil {
			return 0, err
		}
		if hit {
			for _, key := range cand.keys {
				victims[key] = true
			}
		}
	}
	n := 0
	for key := range victims {
		if s.drop(key) {
			n++
		}
	}
	s.invalidations.Add(uint64(n))
	if s.tier != nil {
		// §3.2 across restarts: the removals must be durable before the
		// writer's response is released — one sync for every write.
		if err := s.tier.Sync(); err != nil {
			return n, err
		}
	}
	if then != nil {
		then()
	}
	return n, nil
}

// drop removes key from this store and from the tier beneath it in one
// critical section of the key's shard lock — so a racing promotion's locked
// recheck cannot slip a stale value back in between the two removals — and
// reports whether either held it.
func (s *Store[V]) drop(key string) bool {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n, resident := sh.items[key]
	if resident {
		s.remove(sh, n, false)
	}
	if s.tier != nil {
		if deps, was := s.tier.Remove(key); was {
			if !resident {
				s.unlinkDeps(key, deps)
			}
			return true
		}
	}
	return resident
}

// Remove invalidates a single key, reporting whether an entry was removed.
func (s *Store[V]) Remove(key string) bool {
	if !s.drop(key) {
		return false
	}
	if s.tier != nil {
		_ = s.tier.Sync()
	}
	s.invalidations.Add(1)
	return true
}

// Flush empties the store, as an invalidation event no dependency set
// survives. Entries are removed shard by shard through the regular removal
// path, so the dependency table stays consistent; entries inserted
// concurrently with the flush may survive, as they would had they been
// inserted just after it.
func (s *Store[V]) Flush() {
	defer s.closeEvent(s.openEvent(nil))
	s.clear(false)
}

// clear removes every linked entry; with demote set (clean shutdown) each is
// first offered to the lower tier.
func (s *Store[V]) clear(demote bool) {
	var dropped []l2.Dropped
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, seg := range [...]*segment[V]{&sh.order, &sh.prot} {
			for n := seg.front; n != nil; n = seg.front {
				kept := false
				if demote {
					var d []l2.Dropped
					kept, d = s.demote(&n.Item)
					dropped = append(dropped, d...)
				}
				s.remove(sh, n, kept)
			}
		}
		sh.mu.Unlock()
	}
	s.forget(dropped)
}

// forget clears the dependency links of keys the lower tier let go of as a
// side effect (a budget drop, an expiry, an unreadable record). The key may
// have been re-inserted or re-demoted since the tier dropped it, so under
// the key's shard lock the links of its current generation — the L1 entry,
// else the tier's newer record — stay. Must be called without any shard
// lock held.
func (s *Store[V]) forget(dropped []l2.Dropped) {
	for _, d := range dropped {
		sh := s.shard(d.Key)
		sh.mu.Lock()
		var live []analysis.Query
		if n, resident := sh.items[d.Key]; resident {
			live = n.Deps
		} else {
			live, _ = s.tier.Deps(d.Key)
		}
		s.unlinkDeps(d.Key, depsNotIn(d.Deps, live))
		sh.mu.Unlock()
	}
}

// depsNotIn returns the instances of deps that live does not hold.
func depsNotIn(deps, live []analysis.Query) []analysis.Query {
	if len(live) == 0 {
		return deps
	}
	held := make(map[[2]string]bool, len(live))
	for _, q := range live {
		held[[2]string{q.SQL, datasource.KeyOfValues(q.Args)}] = true
	}
	var out []analysis.Query
	for _, q := range deps {
		if !held[[2]string{q.SQL, datasource.KeyOfValues(q.Args)}] {
			out = append(out, q)
		}
	}
	return out
}

// Epoch returns the invalidation-event counter: it advances when every
// write sweep and flush opens and again when it closes (single-key Remove
// calls do not count — they cannot make an unrelated in-flight entry
// stale). An inserter that reads the epoch before generating an entry and
// sees it unchanged, with no event open, after inserting knows no sweep
// overlapped its window; otherwise staleSince decides whether any raced or
// open event actually intersects the entry's dependencies — the protocol
// InsertSince packages.
func (s *Store[V]) Epoch() uint64 { return s.epoch.Load() }

// recentWriteWindow is how many recent epochs (two per invalidation event)
// the store retains for staleSince. Deeper than any plausible number of
// writes racing one generation; an inserter whose window outlived the ring
// is judged stale conservatively.
const recentWriteWindow = 256

// recentWrite is one retained epoch — an invalidation event's open or
// close: the sweep's prepared write, or nil for a flush (stale for every
// dependency set).
type recentWrite struct {
	epoch uint64
	pw    *analysis.PreparedWrite
}

// openEvent opens a new epoch, retains its event and marks it open until
// closeEvent(epoch). pw == nil marks a flush. The event is registered before
// its sweep starts, so an insert that missed it here is seen by the sweep.
func (s *Store[V]) openEvent(pw *analysis.PreparedWrite) (epoch uint64) {
	s.recentMu.Lock()
	epoch = s.epoch.Add(1)
	s.recent[epoch%recentWriteWindow] = recentWrite{epoch: epoch, pw: pw}
	s.open[epoch] = pw
	s.openN.Add(1)
	s.recentMu.Unlock()
	return epoch
}

// closeEvent closes the event opened at epoch. Closing retains the event
// again under an epoch of its own, so an inserter whose window saw the event
// open — even one that read its epoch after the sweep — still tests against
// it once it has closed. The epoch moves before openN drops, and staleSince's
// fast path loads them in the other order, so it cannot miss both.
func (s *Store[V]) closeEvent(epoch uint64) {
	s.recentMu.Lock()
	e := s.epoch.Add(1)
	s.recent[e%recentWriteWindow] = recentWrite{epoch: e, pw: s.open[epoch]}
	delete(s.open, epoch)
	s.openN.Add(-1)
	s.recentMu.Unlock()
}

// InsertSince runs insert — the caller's Insert of key —
// under the §3.2 read→insert guard, for an entry built from reads that began
// at epoch0 (read from Epoch before the first of them) and depend on deps.
// It reports whether the entry may be served to others. Pre-insert: a sweep
// intersecting deps already ran during the reads, so the entry is known-stale
// and insert is never called — no reader sees it, no eviction victim pays
// for it. Post-insert: a sweep racing the insert itself may have scanned
// before the entry linked, so the key is removed again (over-invalidation is
// sound; Remove is a no-op when the budget refused the insert). Either way
// the caller keeps what it read — its read preceded the write.
func (s *Store[V]) InsertSince(epoch0 uint64, key string, deps []analysis.Query, insert func()) bool {
	if s.staleSince(epoch0, deps) {
		return false
	}
	insert()
	if s.staleSince(epoch0, deps) {
		s.Remove(key)
		return false
	}
	return true
}

// staleSince reports whether an entry whose generate+insert window started
// at epoch0 (and whose insert has completed) may have escaped an
// invalidation it depended on: it tests deps against the prepared write of
// every epoch in (epoch0, now] — each event's open and close — and of every
// event still open, whatever its epoch. Sweeps that start after the insert
// see the entry in the tables, so only those matter. Unknown territory — a
// flush, an evicted ring slot, an analysis error — reports stale;
// over-invalidation is always sound (§3.2).
func (s *Store[V]) staleSince(epoch0 uint64, deps []analysis.Query) bool {
	if s.openN.Load() == 0 && s.epoch.Load() == epoch0 {
		return false
	}
	s.recentMu.Lock()
	cur := s.epoch.Load()
	if cur-epoch0 > recentWriteWindow {
		s.recentMu.Unlock()
		return true
	}
	raced := make([]*analysis.PreparedWrite, 0, cur-epoch0+uint64(len(s.open)))
	for e := epoch0 + 1; e <= cur; e++ {
		rw := s.recent[e%recentWriteWindow]
		if rw.epoch != e {
			s.recentMu.Unlock()
			return true
		}
		raced = append(raced, rw.pw)
	}
	for _, pw := range s.open {
		raced = append(raced, pw)
	}
	s.recentMu.Unlock()
	for _, pw := range raced {
		if pw == nil {
			return true // a flush
		}
		for _, d := range deps {
			hit, err := pw.Intersects(d)
			if err != nil || hit {
				return true
			}
		}
	}
	return false
}

// Len returns the current number of entries.
func (s *Store[V]) Len() int { return int(s.entries.Load()) }

// Bytes returns the accounted memory currently charged against MaxBytes:
// every linked entry's cost plus in-flight insert reservations.
func (s *Store[V]) Bytes() int64 { return s.bytesUsed.Load() }

// StoreStats are a store's cumulative counters and current gauges.
type StoreStats struct {
	Hits             uint64
	Misses           uint64
	Inserts          uint64
	Invalidations    uint64 // entries removed by write invalidation
	Evictions        uint64 // entries removed by capacity pressure
	Expirations      uint64 // entries removed because their TTL passed
	WritesSeen       uint64 // write captures InvalidateWrite analysed (one per statement)
	AdmissionRejects uint64 // inserts refused by the TinyLFU admission filter
	OversizeRejects  uint64 // inserts refused because one entry exceeds MaxBytes
	Entries          int    // current entry count
	DepTemplates     int    // current dependency-table template count
	DepInstances     int    // current dependency-table (template, vector) count
	// Bytes is the accounted memory charged against MaxBytes: every linked
	// entry's cost plus in-flight insert reservations. With MaxBytes set it
	// never exceeds the budget.
	Bytes int64

	// Per-segment occupancy and eviction splits. In a bounded store entries
	// start in probation and move to protected on first reuse; an unbounded
	// store reports everything as probation. A growing EvictionsProtected
	// with a cold probation segment is the operator's signal that MaxBytes
	// is undersized for the working set (see docs/OPERATIONS.md).
	ProbationEntries   int
	ProtectedEntries   int
	ProbationBytes     int64 // linked entry cost only (reservations excluded)
	ProtectedBytes     int64
	EvictionsProbation uint64
	EvictionsProtected uint64
}

// Snapshot returns a point-in-time copy of the counters.
func (s *Store[V]) Snapshot() StoreStats {
	st := StoreStats{
		Hits:               s.hits.Load(),
		Misses:             s.misses.Load(),
		Inserts:            s.inserts.Load(),
		Invalidations:      s.invalidations.Load(),
		Evictions:          s.evictions.Load(),
		EvictionsProtected: s.evictionsProt.Load(),
		Expirations:        s.expirations.Load(),
		WritesSeen:         s.writesSeen.Load(),
		AdmissionRejects:   s.admissionRejects.Load(),
		OversizeRejects:    s.oversizeRejects.Load(),
		Entries:            int(s.entries.Load()),
		Bytes:              s.bytesUsed.Load(),
	}
	st.EvictionsProbation = st.Evictions - st.EvictionsProtected
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		st.ProbationEntries += sh.order.len
		st.ProtectedEntries += sh.prot.len
		pb := sh.protBytes.Load()
		st.ProtectedBytes += pb
		st.ProbationBytes += sh.bytes.Load() - pb
		sh.mu.Unlock()
	}
	for i := range s.depShards {
		ds := &s.depShards[i]
		ds.mu.Lock()
		st.DepTemplates += len(ds.deps)
		for _, dt := range ds.deps {
			st.DepInstances += len(dt.instances)
		}
		ds.mu.Unlock()
	}
	return st
}

// pick identifies one eviction candidate found by a cross-shard scan; the
// zero pick (nil shard) means none was found.
type pick[V any] struct {
	shard *shard[V]
	key   string
	seq   uint64
}

// pickVictim scans for the globally least recently used entry, locking one
// shard at a time. The probation segment is exhausted across all shards
// before any protected entry is considered, so entries with proven reuse
// survive one-hit churn. The zero pick means no linked entry exists
// anywhere.
func (s *Store[V]) pickVictim() pick[V] {
	if v := s.scanVictim(false); v.shard != nil {
		return v
	}
	return s.scanVictim(true)
}

// scanVictim finds the least recently used entry within one segment
// (probation or protected) across all shards. Each shard keeps its segments
// in recency order — a hit moves the entry to the back and refreshes its
// seq — so only each shard's segment front is compared.
func (s *Store[V]) scanVictim(protected bool) (best pick[V]) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		if n := sh.segment(protected).front; n != nil && (best.shard == nil || n.seq < best.seq) {
			best = pick[V]{shard: sh, key: n.Key, seq: n.seq}
		}
		sh.mu.Unlock()
	}
	return best
}

// evictPick re-locks the picked shard and evicts the victim — handing it to
// the lower tier when one is attached.
func (s *Store[V]) evictPick(best pick[V]) {
	sh := best.shard
	sh.mu.Lock()
	// The victim may have been removed (or touched) since the scan; evicting
	// whatever entry now holds the key is still sound — any resident entry
	// is a valid victim — but a vanished key leaves the caller to rescan.
	n, ok := sh.items[best.key]
	if !ok {
		sh.mu.Unlock()
		return
	}
	var kept bool
	var dropped []l2.Dropped
	if s.tier != nil {
		kept, dropped = s.demote(&n.Item)
	}
	s.remove(sh, n, kept)
	s.evictions.Add(1)
	if n.protected {
		s.evictionsProt.Add(1)
	}
	sh.mu.Unlock()
	// The dropped keys' dependency unlinking locks other shards, so it must
	// happen after this shard's lock is released.
	s.forget(dropped)
}
