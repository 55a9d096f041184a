package cache

// The cache's tables and their governance. The paper's cache is one
// structure — a key table plus a dependency table keyed by read-query
// template and value vector (§3.1). This file holds it: the lock-striped key
// table, the template -> instance -> probe-index dependency table, the byte
// budget with CAS reservation, segmented (probation/protected) LRU eviction,
// TinyLFU admission, TTL expiry, the write sweep, and the epoch ring that
// closes the read->insert window (§3.2).
//
// Link, unlink and sweep cost what they touch. An instance computes its
// argument key and probe keys once, when it is created; a linked key holds
// pointers to its instances (shard.links), so unlinking it — a removal, a
// sweep's drop, the disk tier's forget and spill links — hashes no SQL text
// and renders no key. Each capture's sweep starts from the read templates
// its write template can touch (analysis.Reach), narrows each by its probe
// buckets or the template-level exclusion, and tests the rest with
// Intersects. A template, once registered, stays in the table and in
// c.reach for the life of the cache — an application's templates are a fixed
// set, which the engine memoises for as long anyway — so each (write
// template, read template) pair is decided once, however often the read
// template's pages come and go.
//
// Lock order is always key shard -> dependency shard -> c.reach, never the
// reverse, and no two shards of the same stripe are held at once.

import (
	"hash/maphash"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache/l2"
	"autowebcache/internal/datasource"
	"autowebcache/internal/tinylfu"
)

// assumedEntryBytes sizes the admission filter when only the byte bound is
// known: it tracks roughly MaxBytes/assumedEntryBytes keys, a small page
// each.
const assumedEntryBytes = 4096

// node is a linked entry: the entry plus its replacement state, intrusively
// chained into one of its shard's segments.
type node struct {
	entry
	prev, next *node
	// seq is the entry's position in the global recency order: assigned
	// from the cache-wide sequence at insert and refreshed on every hit of
	// a bounded cache. Within a segment the globally-minimal seq is the
	// victim, even though each shard keeps its own lists.
	seq uint64
	// protected marks the segment: false = probation (new insert, first
	// eviction tier), true = protected (promoted on first hit, evicted only
	// when probation is empty).
	protected bool
}

// segment is an intrusive list of nodes in eviction order: front = the
// shard's next victim.
type segment struct {
	front, back *node
	len         int
}

func (l *segment) pushBack(n *node) {
	n.prev, n.next = l.back, nil
	if l.back != nil {
		l.back.next = n
	} else {
		l.front = n
	}
	l.back = n
	l.len++
}

func (l *segment) remove(n *node) {
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
type shard struct {
	mu    sync.Mutex
	items map[string]*node
	order segment // probation
	// prot is the protected segment, populated only in a bounded cache.
	prot segment
	// bytes is the summed cost of the entries linked into the shard
	// (in-flight insert reservations are carried by the cache-wide counter
	// only); protBytes is the subset linked into the protected segment.
	bytes     atomic.Int64
	protBytes atomic.Int64
	// links: key -> the dependency instances it is linked to, for its copy
	// in either tier — the exact mirror of the instances' key sets, so a key
	// reaches its instances by pointer.
	links map[string][]*depInstance
}

func (sh *shard) segment(protected bool) *segment {
	if protected {
		return &sh.prot
	}
	return &sh.order
}

// depInstance is one row of the dependency table's value-vector level: a
// concrete read-query instance and the keys built from it. Its argument key
// and probe keys are computed once, when it is created, and every key linked
// to it holds a pointer to it (shard.links), so unlinking hashes no SQL text
// and formats no value. Most instances back exactly one key, so the first is
// held inline and the set is only allocated for a second.
type depInstance struct {
	tmpl    *depTemplate
	query   analysis.Query
	argsKey string
	// probe holds, for each of the template's probes, the instance's bucket
	// (nil when it binds no value at the probed argument) and its position
	// in it.
	probe []instProbe
	one   bool // key is linked
	key   string
	more  map[string]bool // further keys
}

type instProbe struct {
	bucket *probeBucket
	pos    int
}

// add links key, reporting whether it was not linked yet.
func (inst *depInstance) add(key string) bool {
	switch {
	case inst.one && inst.key == key, inst.more[key]:
		return false
	case !inst.one:
		inst.one, inst.key = true, key
	case inst.more == nil:
		inst.more = map[string]bool{key: true}
	default:
		inst.more[key] = true
	}
	return true
}

// remove unlinks a linked key, reporting whether the instance is now empty.
func (inst *depInstance) remove(key string) (empty bool) {
	if inst.one && inst.key == key {
		inst.one = false
	} else {
		delete(inst.more, key)
	}
	return !inst.one && len(inst.more) == 0
}

// appendKeys appends the linked keys to dst.
func (inst *depInstance) appendKeys(dst []string) []string {
	if inst.one {
		dst = append(dst, inst.key)
	}
	for key := range inst.more {
		dst = append(dst, key)
	}
	return dst
}

// sameInstance reports whether a and b are one dependency instance: the
// same template text and argument vectors with the same key.
func sameInstance(a, b analysis.Query) bool {
	return a.SQL == b.SQL && datasource.SameKey(a.Args, b.Args)
}

// depTemplate groups the instances of one read-query template, with a probe
// index per probed table: the instances keyed by the value their
// `table.col = ?` predicate binds. A write whose effect on that column is
// bounded only needs to test the matching instances — the result-caching
// optimisation the paper relies on for near-zero run-time analysis overhead
// (§7). The template is registered in the cache's analysis.Reach with its
// first instance and stays registered, empty or not, for the life of the
// cache, so the writes that can touch it find it without a scan and its
// maps are reused when it fills again.
type depTemplate struct {
	shard *depShard              // the stripe whose lock guards it
	info  *analysis.TemplateInfo // nil when the template is unparseable
	err   error                  // why info is nil
	// instances: argument key -> instance.
	instances map[string]*depInstance
	probes    []depProbe
}

// depProbe is one probed table's index: probe key -> the bucket of
// instances binding it.
type depProbe struct {
	table   string
	col     string
	arg     int
	buckets map[string]*probeBucket
}

// probeBucket is the instances binding one probe key; each instance knows
// its bucket and position (instProbe), so leaving hashes nothing until the
// bucket empties.
type probeBucket struct {
	key   string
	insts []*depInstance
}

func newDepTemplate(ds *depShard, info *analysis.TemplateInfo, err error) *depTemplate {
	dt := &depTemplate{shard: ds, info: info, err: err, instances: make(map[string]*depInstance)}
	if info != nil {
		for table, p := range info.Probes {
			dt.probes = append(dt.probes, depProbe{table: table, col: p.Col, arg: p.ArgIndex,
				buckets: make(map[string]*probeBucket)})
		}
	}
	return dt
}

// probeOn returns the template's probe on table, or nil.
func (dt *depTemplate) probeOn(table string) *depProbe {
	for i := range dt.probes {
		if dt.probes[i].table == table {
			return &dt.probes[i]
		}
	}
	return nil
}

// addInstance creates the instance for q, whose argument key is argsKey,
// computing its probe keys and filing it in each probe's bucket.
func (dt *depTemplate) addInstance(argsKey string, q analysis.Query) *depInstance {
	inst := &depInstance{tmpl: dt, query: q, argsKey: argsKey}
	if len(dt.probes) > 0 {
		inst.probe = make([]instProbe, len(dt.probes))
	}
	for i := range dt.probes {
		p := &dt.probes[i]
		if p.arg < 0 || p.arg >= len(q.Args) {
			continue
		}
		key := analysis.ProbeKey(q.Args[p.arg])
		b := p.buckets[key]
		if b == nil {
			b = &probeBucket{key: key}
			p.buckets[key] = b
		}
		inst.probe[i] = instProbe{bucket: b, pos: len(b.insts)}
		b.insts = append(b.insts, inst)
	}
	dt.instances[argsKey] = inst
	return inst
}

// removeInstance drops an empty instance from the template and its probe
// buckets, moving each bucket's last instance into the hole.
func (dt *depTemplate) removeInstance(inst *depInstance) {
	delete(dt.instances, inst.argsKey)
	for i, ip := range inst.probe {
		b := ip.bucket
		if b == nil {
			continue
		}
		last := len(b.insts) - 1
		moved := b.insts[last]
		b.insts[ip.pos], moved.probe[i].pos = moved, ip.pos
		b.insts[last] = nil
		if b.insts = b.insts[:last]; last == 0 {
			delete(dt.probes[i].buckets, b.key)
		}
	}
}

// depShard is one stripe of the dependency table.
type depShard struct {
	mu sync.Mutex
	// deps: template SQL -> template group (instances + probe indexes).
	deps map[string]*depTemplate
}

// The disk tier beneath the key table (Options.L2) takes part in its
// transitions through exactly four calls: demote offers an eviction victim —
// or, volatile, an insert the budget refused — to the tier, L2.Remove drops
// the tier's copy of a key during a sweep, L2.Deps tells forget and spill
// which links the tier's current record still needs, and L2.Sync makes every
// Remove so far durable before a sweep returns, so a crash cannot resurrect
// what it removed. Every call but Sync is made with the key's shard lock
// held, which is what orders a promotion against a racing sweep (see adopt).

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

func (c *Cache) shard(key string) *shard {
	return &c.shards[shardHash(key)&c.mask]
}

func (c *Cache) depShard(tmpl string) *depShard {
	return &c.depShards[maphash.String(c.depSeed, tmpl)&uint64(c.mask)]
}

// get returns the live L1 entry for key: it expires the entry if its TTL
// passed, refreshes its recency, and maintains the counters. The hit path
// performs no allocation.
func (c *Cache) get(key string) (*entry, bool) {
	// Every lookup — hit or miss — feeds the admission filter's frequency
	// estimate, so a key's popularity is known before it is ever inserted.
	if c.admit != nil {
		c.admit.Touch(tinylfu.HashString(key))
	}
	sh := c.shard(key)
	sh.mu.Lock()
	n, present := sh.items[key]
	if !present || c.opts.ForceMiss {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	if !n.ExpiresAt.IsZero() && c.opts.Clock().After(n.ExpiresAt) {
		c.remove(sh, n, false)
		sh.mu.Unlock()
		c.expirations.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	if c.opts.MaxBytes > 0 {
		// Recency only matters when eviction can happen; an unbounded cache
		// never consults the order, so it skips the sequence tick. A hit
		// moves the entry to the back of the protected segment, promoting it
		// out of probation on its first reuse.
		sh.segment(n.protected).remove(n)
		if !n.protected {
			n.protected = true
			sh.protBytes.Add(n.Cost)
		}
		sh.prot.pushBack(n)
		n.seq = c.seq.Add(1)
	}
	sh.mu.Unlock()
	c.hits.Add(1)
	return &n.entry, true
}

// Contains reports whether key is cached in L1 (without touching recency
// state or hit/miss counters). Expired entries report false.
func (c *Cache) Contains(key string) bool {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n, ok := sh.items[key]
	return ok && (n.ExpiresAt.IsZero() || !c.opts.Clock().After(n.ExpiresAt))
}

// insert stores an entry, reporting whether it was actually stored.
// false means the byte budget refused it — it costs more than MaxBytes, or
// the admission filter judged it colder than every eviction victim it would
// displace — and the disk tier did not take it instead (see spill).
func (c *Cache) insert(e entry) bool {
	sh := c.shard(e.Key)
	// Replacing a resident key happens atomically under the shard lock,
	// reusing the old entry's count AND its byte budget: only the
	// cost delta is charged (before the old entry is unlinked, so at no
	// instant is the key's budget released for a concurrent reservation to
	// steal), the key never transiently vanishes for concurrent lookups,
	// and a same-size regeneration at full budget needs no eviction, no
	// admission duel, no innocent victim.
	sh.mu.Lock()
	if old, exists := sh.items[e.Key]; exists {
		delta := e.Cost - old.Cost
		if delta <= 0 || c.chargeBytes(delta) {
			c.unlink(sh, old, true)
			if delta < 0 {
				c.bytesUsed.Add(delta)
			}
			c.link(sh, &node{entry: e}, old.Deps)
			sh.mu.Unlock()
			return true
		}
		// The replacement outgrows the resident entry plus the free budget
		// and needs eviction (or is oversize): release the old entry, then
		// take the slow path. The old entry staying gone is correct — it
		// held the content this call is replacing.
		c.remove(sh, old, false)
	}
	sh.mu.Unlock()
	if !c.reserve(e.Key, e.Cost) {
		return c.spill(e)
	}
	c.commit(e)
	return true
}

// spill places an entry the budget refused in the disk tier instead of
// dropping it: admission decides where a page lives, not whether it is
// kept. The tier writes it volatile — no boot restores it, so removing it
// costs the tier no journal write — and the entry's dependency links are
// made exactly as a demotion keeps them, under the key's shard lock, so a
// sweep finds it like any demoted page. The older tier record's links the
// entry does not share go. A key a concurrent insert made resident is left
// alone. It reports whether the tier took the entry.
func (c *Cache) spill(e entry) bool {
	if c.opts.L2 == nil {
		return false
	}
	sh := c.shard(e.Key)
	sh.mu.Lock()
	if _, resident := sh.items[e.Key]; resident {
		sh.mu.Unlock()
		return false
	}
	older, had := c.opts.L2.Deps(e.Key)
	kept, dropped := c.demote(&e, true)
	if kept {
		if had {
			c.unlinkDeps(sh, e.Key, older, e.Deps)
		}
		c.linkDeps(sh, e.Key, e.Deps)
	}
	sh.mu.Unlock()
	c.forget(dropped)
	return kept
}

// reserve claims the byte budget for one entry of the given cost, evicting
// as needed, before the entry touches any table: the first half of a
// two-phase insert. true must be followed by commit (or a rollback of the
// claimed bytes and count, as adopt does); false holds no reservation.
func (c *Cache) reserve(key string, cost int64) bool {
	if !c.reserveBytes(cost, key) {
		return false
	}
	c.entries.Add(1)
	return true
}

// commit links an entry whose budget reserve claimed, displacing whatever a
// concurrent insert of the same key linked meanwhile.
func (c *Cache) commit(e entry) {
	sh := c.shard(e.Key)
	sh.mu.Lock()
	var replaced []analysis.Query
	if cur, exists := sh.items[e.Key]; exists {
		c.remove(sh, cur, true)
		replaced = cur.Deps
	}
	c.link(sh, &node{entry: e}, replaced)
	sh.mu.Unlock()
}

// adopt links an entry read back from the disk tier — the promotion half of
// the tier's calls. Unlike commit it never displaces a resident entry (which is
// at least as fresh as the tier's copy), and it links only if current()
// still holds once the key's shard lock is taken: every sweep removes a key
// from both tiers under that lock, so a promotion racing one either linked
// early enough for the sweep to remove it, or sees the tier's copy retired
// and aborts. It returns the entry to serve — nil when aborted — and whether
// it is the adopted one, now linked. An entry the budget refuses is still
// returned for serving; it just stays resident below.
func (c *Cache) adopt(e entry, current func() bool) (serve *entry, linked bool) {
	sh := c.shard(e.Key)
	sh.mu.Lock()
	cur, resident := sh.items[e.Key]
	sh.mu.Unlock()
	if resident {
		// A concurrent insert or promotion landed first: no victim pays for
		// a reservation that would only be rolled back.
		return &cur.entry, false
	}
	n := &node{entry: e}
	if !c.reserve(e.Key, e.Cost) {
		return &n.entry, false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, resident = sh.items[e.Key]
	if !resident && current() {
		c.linkNode(sh, n)
		return &n.entry, true
	}
	c.bytesUsed.Add(-e.Cost)
	c.entries.Add(-1)
	if resident {
		return &cur.entry, false
	}
	return nil, false
}

// link links a fresh entry (whose count and byte cost are already
// accounted) and retires the disk tier's now-outdated copy of the key, so a
// crash before the new entry is ever demoted cannot roll the key back to the
// older value. That Remove is not synced: losing it in a crash merely
// re-exposes a value that was never invalidated. replaced are the
// dependencies of the L1 entry the new one replaces, whose links the caller
// kept. The new entry links its own first; then the links of the replaced
// and retired generations that it does not share go, so an instance the
// generations share is never dropped and rebuilt. The caller holds sh.mu.
func (c *Cache) link(sh *shard, n *node, replaced []analysis.Query) {
	var retired []analysis.Query
	if c.opts.L2 != nil {
		retired, _ = c.opts.L2.Remove(n.Key)
	}
	c.linkNode(sh, n)
	c.unlinkDeps(sh, n.Key, replaced, n.Deps)
	c.unlinkDeps(sh, n.Key, retired, n.Deps)
	c.inserts.Add(1)
}

// linkNode links n into the shard and the dependency table. New entries
// always start in the probation segment. The caller holds sh.mu.
func (c *Cache) linkNode(sh *shard, n *node) {
	n.seq = c.seq.Add(1)
	sh.items[n.Key] = n
	sh.order.pushBack(n)
	sh.bytes.Add(n.Cost)
	c.variantBytes.Add(int64(len(n.Gzip)))
	c.linkDeps(sh, n.Key, n.Deps)
}

// unlink removes n from its shard's table and segments — and, unless
// keepDeps, from the dependency table — WITHOUT touching the cache-wide
// budgets: the replacement fast path hands the old entry's budget directly
// to its successor. The caller holds sh.mu.
func (c *Cache) unlink(sh *shard, n *node, keepDeps bool) {
	sh.segment(n.protected).remove(n)
	if n.protected {
		sh.protBytes.Add(-n.Cost)
	}
	sh.bytes.Add(-n.Cost)
	c.variantBytes.Add(-int64(len(n.Gzip)))
	delete(sh.items, n.Key)
	if !keepDeps {
		c.unlinkDeps(sh, n.Key, n.Deps, nil)
	}
}

// remove is unlink plus the release of the entry's count and byte cost.
// keepDeps is set when the disk tier took the entry over, or when the caller
// clears the key's links itself.
func (c *Cache) remove(sh *shard, n *node, keepDeps bool) {
	c.unlink(sh, n, keepDeps)
	c.bytesUsed.Add(-n.Cost)
	c.entries.Add(-1)
}

// chargeBytes claims cost bytes of the budget only if they fit without
// eviction, reporting success. Safe to call while holding a shard lock —
// it touches nothing but the atomic counter (unlike reserveBytes, whose
// eviction scan locks shards).
func (c *Cache) chargeBytes(cost int64) bool {
	max := c.opts.MaxBytes
	if max <= 0 {
		c.bytesUsed.Add(cost)
		return true
	}
	for {
		n := c.bytesUsed.Load()
		if n+cost > max {
			return false
		}
		if c.bytesUsed.CompareAndSwap(n, n+cost) {
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
func (c *Cache) reserveBytes(cost int64, key string) bool {
	if c.opts.MaxBytes > 0 && cost > c.opts.MaxBytes {
		c.oversizeRejects.Add(1)
		return false
	}
	for !c.chargeBytes(cost) {
		v := c.pickVictim()
		if v.shard == nil {
			// Every accounted byte belongs to an in-flight insert; let them
			// link so victims exist.
			runtime.Gosched()
			continue
		}
		if c.admit != nil && !c.admit.Admit(tinylfu.HashString(key), tinylfu.HashString(v.key)) {
			c.admissionRejects.Add(1)
			return false
		}
		c.evictPick(v)
	}
	return true
}

// linkDeps links key to the instances of deps, creating each missing
// instance — and, on the template's first instance ever, the template,
// registered in c.reach for good — with its argument and probe keys. The
// caller holds the key's shard lock (or is single-threaded); dependency
// shard locks nest inside it.
func (c *Cache) linkDeps(sh *shard, key string, deps []analysis.Query) {
	if len(deps) == 0 {
		return
	}
	links := sh.links[key]
	if links == nil {
		links = make([]*depInstance, 0, len(deps))
	}
	var buf [64]byte
	for _, d := range deps {
		ds := c.depShard(d.SQL)
		ds.mu.Lock()
		dt := ds.deps[d.SQL]
		if dt == nil {
			// The template info (and its probe predicates) is memoised in the
			// engine; an unparseable template degrades to unindexed (nil info)
			// and fails every sweep that reaches it.
			info, err := c.opts.Engine.Template(d.SQL)
			dt = newDepTemplate(ds, info, err)
			ds.deps[d.SQL] = dt
			c.reach.Add(d.SQL, dt)
		}
		ak := datasource.AppendKeyOfValues(buf[:0], d.Args)
		inst := dt.instances[string(ak)]
		if inst == nil {
			inst = dt.addInstance(string(ak), d)
		}
		if inst.add(key) {
			links = append(links, inst)
		}
		ds.mu.Unlock()
	}
	sh.links[key] = links
}

// unlinkDeps clears key's links to the instances of deps that keep does not
// also hold, dropping instances (and templates) that no longer back any key.
// It finds them among the key's links by pointer, comparing template text
// and argument values, so it hashes no SQL and renders no key. The caller
// holds the key's shard lock; dependency shard locks nest inside it.
func (c *Cache) unlinkDeps(sh *shard, key string, deps, keep []analysis.Query) {
	links := sh.links[key]
	if len(links) == 0 {
		return
	}
next:
	for _, d := range deps {
		for _, k := range keep {
			if sameInstance(k, d) {
				continue next
			}
		}
		for i, inst := range links {
			if sameInstance(inst.query, d) {
				c.unlinkInstance(inst, key)
				last := len(links) - 1
				links[i], links[last] = links[last], nil
				links = links[:last]
				break
			}
		}
	}
	if len(links) == 0 {
		delete(sh.links, key)
	} else {
		sh.links[key] = links
	}
}

// unlinkInstance clears key's link to inst. An instance left empty leaves
// its template; a template left empty stays in its shard and in c.reach.
// An unlink never hashes the template text.
func (c *Cache) unlinkInstance(inst *depInstance, key string) {
	ds := inst.tmpl.shard
	ds.mu.Lock()
	if inst.remove(key) {
		inst.tmpl.removeInstance(inst)
	}
	ds.mu.Unlock()
}

// sweep is one write sweep's scratch, recycled across sweeps.
type sweep struct {
	pws []*analysis.PreparedWrite
	// epochs are the writes' open events.
	epochs []uint64
	cands  []candidate
	// keys holds every candidate's linked keys, copied under its template's
	// lock; after the intersection tests its prefix holds the victims.
	keys []string
	// probed memoises PreparedWrite.ProbeKeys per (write, column), deduped.
	probed []probeMemo
}

// candidate is one (write, instance) pair the intersection test decides;
// keys[lo:hi] are the instance's keys when it was collected.
type candidate struct {
	pw     *analysis.PreparedWrite
	inst   *depInstance
	lo, hi int
}

type probeMemo struct {
	pw      *analysis.PreparedWrite
	col     string
	keys    []string
	bounded bool
}

// maxRecycledKeys bounds the key scratch a sweep returns to the pool, so one
// sweep that matched most of a large cache does not pin its buffers.
const maxRecycledKeys = 1 << 14

var sweepPool = sync.Pool{New: func() any { return new(sweep) }}

func (sc *sweep) release() {
	if cap(sc.keys) > maxRecycledKeys || cap(sc.cands) > maxRecycledKeys {
		return
	}
	clear(sc.pws)
	clear(sc.cands)
	clear(sc.keys)
	clear(sc.probed)
	sc.pws, sc.epochs, sc.cands, sc.keys, sc.probed = sc.pws[:0], sc.epochs[:0], sc.cands[:0], sc.keys[:0], sc.probed[:0]
	sweepPool.Put(sc)
}

// probeKeys returns pw.ProbeKeys(col) without duplicates, computed once per
// sweep.
func (sc *sweep) probeKeys(pw *analysis.PreparedWrite, col string) ([]string, bool) {
	for _, p := range sc.probed {
		if p.pw == pw && p.col == col {
			return p.keys, p.bounded
		}
	}
	keys, bounded := pw.ProbeKeys(col)
	if len(keys) > 1 {
		slices.Sort(keys)
		keys = slices.Compact(keys)
	}
	sc.probed = append(sc.probed, probeMemo{pw: pw, col: col, keys: keys, bounded: bounded})
	return keys, bounded
}

func (sc *sweep) collect(pw *analysis.PreparedWrite, inst *depInstance) {
	lo := len(sc.keys)
	sc.keys = inst.appendKeys(sc.keys)
	sc.cands = append(sc.cands, candidate{pw: pw, inst: inst, lo: lo, hi: len(sc.keys)})
}

// collectTemplate gathers the instances of dt that pw may intersect: the
// probe index's matching buckets when pw bounds the probed column, none when
// the template-level verdict excludes them all, else every instance. dt is
// on pw's list in c.reach, so PossiblyDependent already holds or failed. An
// empty template has nothing to sweep, so even an unparseable one fails no
// sweep once its last page is gone.
func (c *Cache) collectTemplate(sc *sweep, pw *analysis.PreparedWrite, dt *depTemplate, useProbes bool) error {
	ds := dt.shard
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if len(dt.instances) == 0 {
		return nil
	}
	if dt.info == nil {
		return dt.err
	}
	if useProbes {
		if p := dt.probeOn(pw.Table()); p != nil {
			if keys, bounded := sc.probeKeys(pw, p.col); bounded {
				for _, k := range keys {
					if b := p.buckets[k]; b != nil {
						for _, inst := range b.insts {
							sc.collect(pw, inst)
						}
					}
				}
				return nil
			}
		}
	}
	// Every instance would be a candidate: one template-level verdict may
	// rule them all out at once (an INSERT's fresh key joined on, say).
	if len(dt.instances) > 1 && pw.ExcludesTemplate(dt.info) {
		return nil
	}
	for _, inst := range dt.instances {
		sc.collect(pw, inst)
	}
	return nil
}

// invalidateThen removes every entry whose dependency set intersects one of
// the writes (§3.1 "cache invalidations"), in both tiers, and returns how
// many. It returns only after every dependent entry fully inserted before
// the call is gone, so the writer's response is released strictly after the
// invalidation (§3.2). then — the caller's peer broadcast, or nil — runs
// once, after a successful sweep of every write, with every write's event
// still open: until then returns, staleSince refuses every insert any of the
// writes intersects, whenever its epoch was read. If a write cannot be
// prepared, nothing is swept and no event opens; with no writes, nothing
// happens at all.
//
// Each write reaches only the read templates its write template can touch
// (c.reach), and within each only the candidates its probe keys select.
func (c *Cache) invalidateThen(ws []analysis.WriteCapture, then func()) (int, error) {
	if len(ws) == 0 {
		return 0, nil
	}
	sc := sweepPool.Get().(*sweep)
	defer sc.release()
	for _, w := range ws {
		pw, err := c.opts.Engine.PrepareWrite(w)
		if err != nil {
			return 0, err
		}
		sc.pws = append(sc.pws, pw)
	}
	c.writesSeen.Add(uint64(len(ws)))
	// Each epoch bump precedes the sweep (see the epoch field); the prepared
	// writes are retained so staleSince can test raced inserts precisely.
	for _, pw := range sc.pws {
		sc.epochs = append(sc.epochs, c.openEvent(pw))
	}
	defer func() {
		for i := len(sc.epochs) - 1; i >= 0; i-- {
			c.closeEvent(sc.epochs[i])
		}
	}()
	// ColumnOnly deliberately ignores bound values, so the value-based
	// probe index must not narrow its candidate set.
	useProbes := c.opts.Engine.Strategy() != analysis.StrategyColumnOnly

	// Snapshot the candidates template by template, then run the
	// intersection tests outside all locks so concurrent lookups are not
	// serialised behind the analysis.
	for _, pw := range sc.pws {
		for _, dt := range c.reach.Touched(pw) {
			if err := c.collectTemplate(sc, pw, dt, useProbes); err != nil {
				return 0, err
			}
		}
	}
	victims := 0
	for _, cand := range sc.cands {
		if cand.pw.IntersectsDependent(cand.inst.tmpl.info, cand.inst.query.Args) {
			victims += copy(sc.keys[victims:], sc.keys[cand.lo:cand.hi])
		}
	}
	keys := sc.keys[:victims]
	slices.Sort(keys)
	n := 0
	for i, key := range keys {
		if (i == 0 || key != keys[i-1]) && c.drop(key) {
			n++
		}
	}
	c.invalidations.Add(uint64(n))
	if c.opts.L2 != nil {
		// §3.2 across restarts: the removals must be durable before the
		// writer's response is released — one sync for every write.
		if err := c.opts.L2.Sync(); err != nil {
			return n, err
		}
	}
	if then != nil {
		then()
	}
	return n, nil
}

// drop removes key from L1 and from the disk tier in one critical section of
// the key's shard lock — so a racing promotion's locked recheck cannot slip a
// stale value back in between the two removals — and reports whether either
// held it. The key is then in neither tier, so every link it has goes.
func (c *Cache) drop(key string) bool {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n, held := sh.items[key]
	if held {
		c.remove(sh, n, true)
	}
	if c.opts.L2 != nil {
		if _, was := c.opts.L2.Remove(key); was {
			held = true
		}
	}
	for _, inst := range sh.links[key] {
		c.unlinkInstance(inst, key)
	}
	delete(sh.links, key)
	return held
}

// InvalidateKey removes a single page, if present. It returns true when a
// page was removed. This is the developer-facing escape hatch the paper's
// §8 describes for externally-driven invalidation (e.g. database triggers).
func (c *Cache) InvalidateKey(key string) bool {
	if !c.drop(key) {
		return false
	}
	if c.opts.L2 != nil {
		_ = c.opts.L2.Sync()
	}
	c.invalidations.Add(1)
	return true
}

// clear removes every linked entry shard by shard through the regular
// removal path, so the dependency table stays consistent; with demote set
// (clean shutdown) each is first offered to the disk tier.
func (c *Cache) clear(demote bool) {
	var dropped []l2.Dropped
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, seg := range [...]*segment{&sh.order, &sh.prot} {
			for n := seg.front; n != nil; n = seg.front {
				kept := false
				if demote {
					var d []l2.Dropped
					kept, d = c.demote(&n.entry, false)
					dropped = append(dropped, d...)
				}
				c.remove(sh, n, kept)
			}
		}
		sh.mu.Unlock()
	}
	c.forget(dropped)
}

// forget clears the dependency links of keys the disk tier let go of as a
// side effect (a budget drop, an expiry, an unreadable record). The key may
// have been re-inserted or re-demoted since the tier dropped it, so under
// the key's shard lock the links of its current generation — the L1 entry,
// else the tier's newer record — stay. Must be called without any shard
// lock held.
func (c *Cache) forget(dropped []l2.Dropped) {
	for _, d := range dropped {
		sh := c.shard(d.Key)
		sh.mu.Lock()
		var live []analysis.Query
		if n, resident := sh.items[d.Key]; resident {
			live = n.Deps
		} else {
			live, _ = c.opts.L2.Deps(d.Key)
		}
		c.unlinkDeps(sh, d.Key, d.Deps, live)
		sh.mu.Unlock()
	}
}

// Epoch returns the invalidation-event counter: it advances when every
// write sweep and flush opens and again when it closes (InvalidateKey calls
// do not count — they cannot make an unrelated in-flight entry stale). An
// inserter reads it before generating a page (or fragment) and hands it to
// InsertSince: seeing it unchanged, with no event open, after inserting
// means no sweep overlapped the window; otherwise staleSince decides whether
// any raced or open event actually intersects the page's dependencies.
func (c *Cache) Epoch() uint64 { return c.epoch.Load() }

// recentWriteWindow is how many recent epochs (two per invalidation event)
// the cache retains for staleSince. Deeper than any plausible number of
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
func (c *Cache) openEvent(pw *analysis.PreparedWrite) (epoch uint64) {
	c.recentMu.Lock()
	epoch = c.epoch.Add(1)
	c.recent[epoch%recentWriteWindow] = recentWrite{epoch: epoch, pw: pw}
	c.open[epoch] = pw
	c.openN.Add(1)
	c.recentMu.Unlock()
	return epoch
}

// closeEvent closes the event opened at epoch. Closing retains the event
// again under an epoch of its own, so an inserter whose window saw the event
// open — even one that read its epoch after the sweep — still tests against
// it once it has closed. The epoch moves before openN drops, and staleSince's
// fast path loads them in the other order, so it cannot miss both.
func (c *Cache) closeEvent(epoch uint64) {
	c.recentMu.Lock()
	e := c.epoch.Add(1)
	c.recent[e%recentWriteWindow] = recentWrite{epoch: e, pw: c.open[epoch]}
	delete(c.open, epoch)
	c.openN.Add(-1)
	c.recentMu.Unlock()
}

// staleSince reports whether an entry whose generate+insert window started
// at epoch0 (and whose insert has completed) may have escaped an
// invalidation it depended on: it tests deps against the prepared write of
// every epoch in (epoch0, now] — each event's open and close — and of every
// event still open, whatever its epoch. Sweeps that start after the insert
// see the entry in the tables, so only those matter. Unknown territory — a
// flush, an evicted ring slot, an analysis error — reports stale;
// over-invalidation is always sound (§3.2).
func (c *Cache) staleSince(epoch0 uint64, deps []analysis.Query) bool {
	if c.openN.Load() == 0 && c.epoch.Load() == epoch0 {
		return false
	}
	c.recentMu.Lock()
	cur := c.epoch.Load()
	if cur-epoch0 > recentWriteWindow {
		c.recentMu.Unlock()
		return true
	}
	raced := make([]*analysis.PreparedWrite, 0, cur-epoch0+uint64(len(c.open)))
	for e := epoch0 + 1; e <= cur; e++ {
		rw := c.recent[e%recentWriteWindow]
		if rw.epoch != e {
			c.recentMu.Unlock()
			return true
		}
		raced = append(raced, rw.pw)
	}
	for _, pw := range c.open {
		raced = append(raced, pw)
	}
	c.recentMu.Unlock()
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

// Len returns the current number of cached pages.
func (c *Cache) Len() int { return int(c.entries.Load()) }

// Bytes returns the accounted memory currently charged against MaxBytes:
// every linked entry's cost plus in-flight insert reservations.
func (c *Cache) Bytes() int64 { return c.bytesUsed.Load() }

// Snapshot returns a point-in-time copy of the cache counters — the
// canonical stats accessor shared by every layer (weave, cache and cluster
// all expose Snapshot()); the telemetry collectors consume it.
func (c *Cache) Snapshot() Stats {
	st := Stats{
		Hits:               c.hits.Load(),
		Misses:             c.misses.Load(),
		Inserts:            c.inserts.Load(),
		Invalidations:      c.invalidations.Load(),
		Evictions:          c.evictions.Load(),
		EvictionsProtected: c.evictionsProt.Load(),
		Expirations:        c.expirations.Load(),
		WritesSeen:         c.writesSeen.Load(),
		AdmissionRejects:   c.admissionRejects.Load(),
		OversizeRejects:    c.oversizeRejects.Load(),
		Entries:            int(c.entries.Load()),
		Bytes:              c.bytesUsed.Load(),
		GzipCompressions:   c.gzipCompressions.Load(),
		VariantBytes:       c.variantBytes.Load(),
		Demotions:          c.demotions.Load(),
		Spills:             c.spills.Load(),
		Promotions:         c.promotions.Load(),
		PromoteAborts:      c.promoteAborts.Load(),
	}
	if c.opts.L2 != nil {
		st.L2 = c.opts.L2.Snapshot()
	}
	st.EvictionsProbation = st.Evictions - st.EvictionsProtected
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.ProbationEntries += sh.order.len
		st.ProtectedEntries += sh.prot.len
		pb := sh.protBytes.Load()
		st.ProtectedBytes += pb
		st.ProbationBytes += sh.bytes.Load() - pb
		sh.mu.Unlock()
	}
	for i := range c.depShards {
		ds := &c.depShards[i]
		ds.mu.Lock()
		for _, dt := range ds.deps {
			if len(dt.instances) > 0 {
				st.DepTemplates++
			}
			st.DepInstances += len(dt.instances)
		}
		ds.mu.Unlock()
	}
	return st
}

// pick identifies one eviction candidate found by a cross-shard scan; the
// zero pick (nil shard) means none was found.
type pick struct {
	shard *shard
	key   string
	seq   uint64
}

// pickVictim scans for the globally least recently used entry, locking one
// shard at a time. The probation segment is exhausted across all shards
// before any protected entry is considered, so entries with proven reuse
// survive one-hit churn. The zero pick means no linked entry exists
// anywhere.
func (c *Cache) pickVictim() pick {
	if v := c.scanVictim(false); v.shard != nil {
		return v
	}
	return c.scanVictim(true)
}

// scanVictim finds the least recently used entry within one segment
// (probation or protected) across all shards. Each shard keeps its segments
// in recency order — a hit moves the entry to the back and refreshes its
// seq — so only each shard's segment front is compared.
func (c *Cache) scanVictim(protected bool) (best pick) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if n := sh.segment(protected).front; n != nil && (best.shard == nil || n.seq < best.seq) {
			best = pick{shard: sh, key: n.Key, seq: n.seq}
		}
		sh.mu.Unlock()
	}
	return best
}

// evictPick re-locks the picked shard and evicts the victim — handing it to
// the disk tier when one is attached.
func (c *Cache) evictPick(best pick) {
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
	if c.opts.L2 != nil {
		kept, dropped = c.demote(&n.entry, false)
	}
	c.remove(sh, n, kept)
	c.evictions.Add(1)
	if n.protected {
		c.evictionsProt.Add(1)
	}
	sh.mu.Unlock()
	// The dropped keys' dependency unlinking locks other shards, so it must
	// happen after this shard's lock is released.
	c.forget(dropped)
}
