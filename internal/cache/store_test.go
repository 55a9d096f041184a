package cache

// The governance contract: the key and dependency tables, the byte budget,
// the eviction segments, admission and the epoch ring. Entries are inserted
// with explicit costs through the unexported insert/reserve/commit/adopt, so
// nothing here depends on what a page costs; each carries its row number as
// its content type, to tell which entry is served.

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/memdb"
)

func TestShardCount(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 8: 8, 9: 16, 250: 256, 1000: 256}
	for in, want := range cases {
		if got := shardCount(in); got != want {
			t.Errorf("shardCount(%d) = %d, want %d", in, got, want)
		}
	}
	n := shardCount(0) // GOMAXPROCS-derived: must still be a power of two in range
	if n < 1 || n > maxShards || n&(n-1) != 0 {
		t.Errorf("shardCount(0) = %d, not a power of two in [1,%d]", n, maxShards)
	}
}

func TestShardHashSpreads(t *testing.T) {
	if shardHash("") != 2166136261 {
		t.Errorf("FNV-1a offset basis: got %d", shardHash(""))
	}
	if shardHash("/page?x=1") == shardHash("/page?x=2") {
		t.Error("adjacent keys collide")
	}
}

// put inserts key at the given cost, depending on row k of table t.
func put(c *Cache, key string, cost int64, k int) bool {
	return c.insert(rowEntry(key, cost, k))
}

// rowEntry is the entry put inserts.
func rowEntry(key string, cost int64, k int) entry {
	return entry{Page: Page{ContentType: strconv.Itoa(k)}, Key: key, Cost: cost, Deps: depOn(k)}
}

func writeRow(k int) analysis.WriteCapture {
	return analysis.WriteCapture{Query: analysis.Query{
		SQL:  "UPDATE t SET a = ? WHERE b = ?",
		Args: []memdb.Value{int64(1), int64(k)},
	}}
}

func sumShards(c *Cache) int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].bytes.Load()
	}
	return sum
}

// governed is the table the contract runs over: the byte budget alone, with
// admission, on a single shard, and so tight (three 1 KiB entries) that
// in-flight reservations can hold every byte.
var governed = []struct {
	name string
	opts Options
}{
	{"bytes-lru", Options{MaxBytes: 8 << 10, Shards: 4}},
	{"bytes+admission", Options{MaxBytes: 8 << 10, Admission: true, Shards: 4}},
	{"one-shard", Options{MaxBytes: 8 << 10, Shards: 1}},
	{"tight", Options{MaxBytes: 3 << 10, Shards: 4}},
	{"tight+admission", Options{MaxBytes: 3 << 10, Admission: true, Shards: 4}},
}

// checkBounds fails when the byte budget is exceeded.
func checkBounds(t *testing.T, c *Cache, when string) {
	t.Helper()
	if max := c.opts.MaxBytes; max > 0 && c.Bytes() > max {
		t.Fatalf("%s: bytes %d exceed MaxBytes %d", when, c.Bytes(), max)
	}
}

func TestStoreValidation(t *testing.T) {
	eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"no engine":                  {},
		"negative MaxBytes":          {Engine: eng, MaxBytes: -1},
		"negative Shards":            {Engine: eng, Shards: -1},
		"Admission without MaxBytes": {Engine: eng, Admission: true},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := New(opts); err == nil {
				t.Error("accepted")
			}
		})
	}
	if _, err := New(Options{Engine: eng}); err != nil {
		t.Fatalf("zero governance rejected: %v", err)
	}
}

// TestStoreAccounting: every transition moves exactly the entry's cost —
// insert charges it, replacement swaps it, removal credits it — and the
// per-shard books sum to the cache-wide figure.
func TestStoreAccounting(t *testing.T) {
	c := governedCache(t, Options{Shards: 4})
	if c.Bytes() != 0 || c.Len() != 0 {
		t.Fatalf("fresh cache: bytes=%d len=%d", c.Bytes(), c.Len())
	}
	put(c, "/a", 1000, 1)
	if st := c.Snapshot(); st.Bytes != 1000 || st.Entries != 1 || st.Inserts != 1 {
		t.Fatalf("after insert: %+v", st)
	}
	// A hit charges nothing further.
	if pg, ok := c.Lookup("/a"); !ok || pg.ContentType != "1" {
		t.Fatalf("get = %+v, %v", pg, ok)
	}
	if c.Bytes() != 1000 {
		t.Fatalf("hit changed accounted bytes to %d", c.Bytes())
	}
	// Replacement swaps the accounted cost, not accumulates it.
	put(c, "/a", 500, 1)
	if c.Bytes() != 500 || c.Len() != 1 {
		t.Fatalf("after replacement: bytes=%d len=%d", c.Bytes(), c.Len())
	}
	put(c, "/b", 300, 2)
	if sum := sumShards(c); sum != c.Bytes() {
		t.Fatalf("shard bytes sum %d != total %d", sum, c.Bytes())
	}
	// Removal — by key, by write — credits everything back.
	if !c.InvalidateKey("/a") || c.InvalidateKey("/a") {
		t.Fatal("Remove must report exactly the first removal")
	}
	if n, err := c.InvalidateWriteLocal(writeRow(2)); err != nil || n != 1 {
		t.Fatalf("sweep removed %d, %v; want 1", n, err)
	}
	st := c.Snapshot()
	if st.Bytes != 0 || st.Entries != 0 || st.DepTemplates != 0 || st.DepInstances != 0 {
		t.Fatalf("cache not drained: %+v", st)
	}
	if st.Invalidations != 2 || st.WritesSeen != 1 {
		t.Fatalf("counters: %+v", st)
	}
}

// TestStoreBudgetNeverExceeded is the tentpole invariant, for every row of
// the governance table: the budget is not exceeded at any observable instant
// — sequentially, through the two-phase reserve/commit path, and under
// concurrent insert/lookup/sweep/remove churn — and when the dust settles
// the books balance and a flush drains the cache to zero.
func TestStoreBudgetNeverExceeded(t *testing.T) {
	for _, g := range governed {
		t.Run(g.name, func(t *testing.T) {
			c := governedCache(t, g.opts)
			for i := 0; i < 64; i++ {
				put(c, fmt.Sprintf("/p?i=%d", i), 1024, i)
				checkBounds(t, c, fmt.Sprintf("insert %d", i))
			}
			for i := 64; i < 128; i++ {
				key := fmt.Sprintf("/p?i=%d", i)
				if c.reserve(key, 1024) {
					checkBounds(t, c, fmt.Sprintf("reserve %d", i))
					c.commit(rowEntry(key, 1024, i))
				}
				checkBounds(t, c, fmt.Sprintf("commit %d", i))
			}
			st := c.Snapshot()
			if st.Evictions+st.AdmissionRejects == 0 {
				t.Fatal("no evictions or admission rejects under pressure")
			}
			if st.Entries == 0 {
				t.Fatal("cache emptied itself")
			}

			var over atomic.Int64
			stop := make(chan struct{})
			var watcher sync.WaitGroup
			watcher.Add(1)
			go func() {
				defer watcher.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if max := c.opts.MaxBytes; max > 0 && c.Bytes() > max {
						over.Store(c.Bytes())
						return
					}
				}
			}()
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					cost := int64(512 + w*257)
					for i := 0; i < 600; i++ {
						k := (w*31 + i) % 200
						key := fmt.Sprintf("/p?i=%d", k)
						switch i % 5 {
						case 0:
							put(c, key, cost, k)
						case 1:
							if _, err := c.InvalidateWriteLocal(writeRow(k)); err != nil {
								t.Error(err)
								return
							}
						case 2:
							c.InvalidateKey(key)
						default:
							c.Lookup(key)
						}
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			watcher.Wait()
			if v := over.Load(); v > 0 {
				t.Fatalf("a bound was exceeded during churn (observed %d)", v)
			}
			checkBounds(t, c, "after churn")
			// With no inserts in flight, every reservation either linked or
			// was credited back.
			if sum := sumShards(c); sum != c.Bytes() {
				t.Fatalf("books out of balance: shards sum %d, global %d", sum, c.Bytes())
			}
			st = c.Snapshot()
			if st.ProbationEntries+st.ProtectedEntries != st.Entries {
				t.Fatalf("segments hold %d+%d entries, cache %d", st.ProbationEntries, st.ProtectedEntries, st.Entries)
			}
			if st.ProbationBytes+st.ProtectedBytes != st.Bytes {
				t.Fatalf("segments hold %d+%d bytes, cache %d", st.ProbationBytes, st.ProtectedBytes, st.Bytes)
			}
			if st.EvictionsProbation+st.EvictionsProtected != st.Evictions {
				t.Fatalf("eviction split %d+%d != total %d", st.EvictionsProbation, st.EvictionsProtected, st.Evictions)
			}
			c.Flush()
			st = c.Snapshot()
			if st.Bytes != 0 || st.Entries != 0 || st.DepTemplates != 0 || st.DepInstances != 0 || sumShards(c) != 0 {
				t.Fatalf("flush did not drain the cache: %+v", st)
			}
		})
	}
}

// TestStoreSegmentOrder: inserts land in probation, a first hit moves the
// entry (and its bytes) to protected exactly once, eviction drains probation
// across all shards before it touches a protected entry, and every eviction
// is attributed to its segment. TinyLFU admission on top changes none of
// this: it may refuse the churn outright, but what it lets in still evicts
// from probation only.
func TestStoreSegmentOrder(t *testing.T) {
	for _, admission := range []bool{false, true} {
		name := "LRU"
		if admission {
			name = "LRU+TinyLFU"
		}
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/%d-shards", name, shards), func(t *testing.T) {
				segmentOrder(t, Options{MaxBytes: 8 * 1024, Admission: admission, Shards: shards})
			})
		}
	}
}

func segmentOrder(t *testing.T, opts Options) {
	c := governedCache(t, opts)
	put(c, "/hot?i=0", 1024, 0)
	put(c, "/hot?i=1", 1024, 1)
	st := c.Snapshot()
	if st.ProbationEntries != 2 || st.ProtectedEntries != 0 || st.ProbationBytes != st.Bytes {
		t.Fatalf("after inserts: %+v", st)
	}
	c.Lookup("/hot?i=0")
	st = c.Snapshot()
	if st.ProbationEntries != 1 || st.ProtectedEntries != 1 || st.ProtectedBytes != 1024 {
		t.Fatalf("after first hit: %+v", st)
	}
	// Promotion is one-time: further hits move no bytes.
	for i := 0; i < 3; i++ {
		c.Lookup("/hot?i=0")
		c.Lookup("/hot?i=1")
	}
	if st = c.Snapshot(); st.ProtectedEntries != 2 || st.ProtectedBytes != 2048 {
		t.Fatalf("after re-hits: %+v", st)
	}
	// One-hit churn must be absorbed by probation (or, with admission,
	// refused at the door).
	for i := 0; i < 64; i++ {
		put(c, fmt.Sprintf("/cold?i=%d", i), 1024, i+2)
	}
	st = c.Snapshot()
	if st.Evictions+st.AdmissionRejects == 0 || st.EvictionsProbation != st.Evictions || st.EvictionsProtected != 0 {
		t.Fatalf("churn must evict from probation only: %+v", st)
	}
	if !opts.Admission && st.Evictions == 0 {
		t.Fatalf("plain SLRU churn evicted nothing: %+v", st)
	}
	for i := 0; i < 2; i++ {
		if !c.Contains(fmt.Sprintf("/hot?i=%d", i)) {
			t.Fatalf("protected entry %d evicted by one-hit churn", i)
		}
	}
	// Removal from the protected segment credits its counter.
	c.InvalidateKey("/hot?i=0")
	c.InvalidateKey("/hot?i=1")
	if st = c.Snapshot(); st.ProtectedEntries != 0 || st.ProtectedBytes != 0 {
		t.Fatalf("after removal: %+v", st)
	}
}

// TestStoreProtectedLRU: once probation is empty, the protected segment
// gives up its least recently hit entry across all shards — a re-hit moves
// an entry behind the others.
func TestStoreProtectedLRU(t *testing.T) {
	c := governedCache(t, Options{MaxBytes: 3 * 512, Shards: 4})
	for i := 0; i < 3; i++ {
		put(c, fmt.Sprintf("/p?i=%d", i), 512, i)
	}
	for _, i := range []int{0, 1, 2, 0} {
		c.Lookup(fmt.Sprintf("/p?i=%d", i))
	}
	put(c, "/p?i=3", 512, 3)
	if c.Contains("/p?i=1") {
		t.Fatal("least recently hit protected entry survived")
	}
	for _, i := range []int{0, 2, 3} {
		if !c.Contains(fmt.Sprintf("/p?i=%d", i)) {
			t.Fatalf("entry %d evicted instead of the LRU victim", i)
		}
	}
	if st := c.Snapshot(); st.EvictionsProtected != 1 {
		t.Fatalf("eviction not taken from protected: %+v", st)
	}
}

// TestStoreUnboundedKeepsNoOrder: an unbounded cache never evicts, so it
// keeps no recency order — hits neither promote an entry nor tick the
// sequence, and every entry reports as probation.
func TestStoreUnboundedKeepsNoOrder(t *testing.T) {
	c := governedCache(t, Options{Shards: 4})
	for i := 0; i < 64; i++ {
		put(c, fmt.Sprintf("/p?i=%d", i), 1024, i)
	}
	seq := c.seq.Load()
	for i := 0; i < 64; i++ {
		c.Lookup(fmt.Sprintf("/p?i=%d", i))
	}
	st := c.Snapshot()
	if st.Hits != 64 || st.Evictions != 0 || st.ProtectedEntries != 0 || st.ProbationEntries != 64 {
		t.Fatalf("unbounded cache reordered or evicted: %+v", st)
	}
	if c.seq.Load() != seq {
		t.Fatalf("hits ticked the recency sequence %d -> %d", seq, c.seq.Load())
	}
}

// TestStoreAdmissionDuel: at a full budget a never-seen key loses to hot
// victims — refused, nothing displaced — until it has been requested often
// enough to out-score one.
func TestStoreAdmissionDuel(t *testing.T) {
	c := governedCache(t, Options{MaxBytes: 2 * 1024, Admission: true})
	for i := 0; i < 2; i++ {
		key := fmt.Sprintf("/hot?i=%d", i)
		// Lookups — even misses — feed the filter's sketch.
		for j := 0; j < 8; j++ {
			c.Lookup(key)
		}
		if !put(c, key, 1024, i) {
			t.Fatalf("hot key %s rejected", key)
		}
	}
	if put(c, "/cold", 1024, 9) {
		t.Fatal("one-hit wonder admitted over hot victims")
	}
	if c.reserve("/cold", 1024) {
		t.Fatal("two-phase insert bypassed the admission duel")
	}
	st := c.Snapshot()
	if st.AdmissionRejects != 2 || st.Evictions != 0 || st.Bytes != 2*1024 {
		t.Fatalf("after lost duels: %+v", st)
	}
	for i := 0; i < 2; i++ {
		if !c.Contains(fmt.Sprintf("/hot?i=%d", i)) {
			t.Fatalf("hot key %d displaced", i)
		}
	}
	for j := 0; j < 32; j++ {
		c.Lookup("/cold")
	}
	if !put(c, "/cold", 1024, 9) {
		t.Fatal("now-hot key still rejected")
	}
}

// TestStoreOversizeReject: an entry that can never fit is refused by both
// insert paths without evicting anything or leaking accounting.
func TestStoreOversizeReject(t *testing.T) {
	c := governedCache(t, Options{MaxBytes: 1024})
	put(c, "/small", 512, 1)
	if put(c, "/big", 4096, 2) {
		t.Fatal("oversize entry claimed stored")
	}
	if c.reserve("/big", 1025) {
		t.Fatal("oversize reservation granted")
	}
	st := c.Snapshot()
	if st.OversizeRejects != 2 || st.Evictions != 0 || st.Bytes != 512 || st.Entries != 1 {
		t.Fatalf("oversize rejects leaked: %+v", st)
	}
	if c.Contains("/big") || !c.Contains("/small") {
		t.Fatal("oversize reject disturbed the cache")
	}
}

// TestStoreReplacement: regenerating a resident key at full budget reuses
// the old entry's bytes — no eviction of innocent entries, no admission duel
// the key could lose against itself — while a replacement that outgrows the
// freed budget takes the eviction path, never past the budget.
func TestStoreReplacement(t *testing.T) {
	const n = 4
	c := governedCache(t, Options{MaxBytes: n * 1024, Admission: true})
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			if !put(c, fmt.Sprintf("/p?i=%d", i), 1024, i) {
				t.Fatalf("round %d: insert %d rejected at full budget", round, i)
			}
		}
	}
	st := c.Snapshot()
	if st.Evictions != 0 || st.AdmissionRejects != 0 || st.Entries != n || st.Bytes != n*1024 {
		t.Fatalf("same-size replacement disturbed the cache: %+v", st)
	}
	// Shrinking credits the difference.
	put(c, "/p?i=0", 256, 0)
	if c.Bytes() != (n-1)*1024+256 {
		t.Fatalf("bytes after shrink = %d", c.Bytes())
	}

	g := governedCache(t, Options{MaxBytes: n * 256})
	for i := 0; i < n; i++ {
		put(g, fmt.Sprintf("/p?i=%d", i), 256, i)
	}
	if !put(g, "/p?i=0", 768, 0) {
		t.Fatal("grown replacement not stored")
	}
	if st := g.Snapshot(); st.Bytes > n*256 || st.Evictions == 0 || !g.Contains("/p?i=0") {
		t.Fatalf("grown replacement: %+v", st)
	}
}

// TestStoreAdoptResidentEvictsNothing: a promotion that finds its key already
// resident (an insert or another promotion landed first) serves the resident
// entry without reserving, so no innocent victim is evicted at a full budget.
func TestStoreAdoptResidentEvictsNothing(t *testing.T) {
	const n = 4
	c := governedCache(t, Options{MaxBytes: n * 1024})
	for i := 0; i < n; i++ {
		put(c, fmt.Sprintf("/p?i=%d", i), 1024, i)
	}
	serve, linked := c.adopt(rowEntry("/p?i=0", 1024, -1),
		func() bool { t.Fatal("current() consulted for a resident key"); return false })
	if linked || serve == nil || serve.ContentType != "0" {
		t.Fatalf("adopt over a resident key: serve=%+v linked=%v", serve, linked)
	}
	if st := c.Snapshot(); st.Evictions != 0 || st.Entries != n || st.Bytes != n*1024 {
		t.Fatalf("adopt over a resident key disturbed the cache: %+v", st)
	}
}

// TestStoreExpiry: an expired entry is invisible, and the lookup that finds
// it expired removes it and credits its bytes.
func TestStoreExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	c := governedCache(t, Options{
		MaxBytes: 1 << 20,
		Clock:    func() time.Time { return now },
	})
	c.insert(entry{Key: "/ttl", Cost: 128, ExpiresAt: now.Add(time.Second)})
	if !c.Contains("/ttl") || c.Bytes() != 128 {
		t.Fatal("fresh entry not visible")
	}
	now = now.Add(2 * time.Second)
	if c.Contains("/ttl") {
		t.Fatal("expired entry reported present")
	}
	if _, ok := c.Lookup("/ttl"); ok {
		t.Fatal("expired entry served")
	}
	if st := c.Snapshot(); st.Bytes != 0 || st.Entries != 0 || st.Expirations != 1 || st.Misses != 1 {
		t.Fatalf("after expiry: %+v", st)
	}
}

// TestStoreEpochGuard: the read->insert window. A sweep or flush between an
// inserter's epoch read and its insert is visible to staleSince exactly when
// it could have touched the entry's dependencies.
func TestStoreEpochGuard(t *testing.T) {
	c := governedCache(t, Options{})
	e0 := c.Epoch()
	if c.staleSince(e0, depOn(1)) {
		t.Fatal("stale with no event")
	}
	if _, err := c.InvalidateWriteLocal(writeRow(2)); err != nil {
		t.Fatal(err)
	}
	if c.staleSince(e0, depOn(1)) {
		t.Fatal("a write to another row made the entry stale")
	}
	if !c.staleSince(e0, depOn(2)) {
		t.Fatal("a write to the entry's row went unnoticed")
	}
	e1 := c.Epoch()
	c.InvalidateKey("/nothing")
	if c.Epoch() != e1 {
		t.Fatal("a single-key removal opened an epoch")
	}
	c.Flush()
	if !c.staleSince(e1, nil) {
		t.Fatal("a flush must make every raced insert stale")
	}
	e2 := c.Epoch()
	for i := 0; i <= recentWriteWindow; i++ {
		if _, err := c.InvalidateWriteLocal(writeRow(2)); err != nil {
			t.Fatal(err)
		}
	}
	if !c.staleSince(e2, depOn(1)) {
		t.Fatal("a window that outlived the ring must be judged stale")
	}
}

// TestStoreOpenEvents: while an invalidation is open (its caller's callback
// still running), an insert it intersects is refused even when its epoch was
// read after the sweep; an unrelated insert is not. Closing the event lifts
// the refusal. An open flush refuses every insert.
func TestStoreOpenEvents(t *testing.T) {
	c := governedCache(t, Options{})
	insertSince := func(epoch0 uint64, key string, k int) bool {
		_, _, fresh := c.InsertSince(epoch0, key, nil, "", depOn(k), 0)
		return fresh
	}
	var during uint64
	if _, err := c.invalidateThen([]analysis.WriteCapture{writeRow(2)}, func() {
		during = c.Epoch()
		if insertSince(during, "/two", 2) {
			t.Error("an insert overlapping the open write was accepted")
		}
		if !insertSince(during, "/one", 1) {
			t.Error("an insert unrelated to the open write was refused")
		}
	}); err != nil {
		t.Fatal(err)
	}
	// A window that began while the write was open still raced it.
	if insertSince(during, "/two", 2) {
		t.Fatal("an insert whose window saw the write open was accepted after it closed")
	}
	if !insertSince(c.Epoch(), "/two", 2) {
		t.Fatal("the write stayed open after invalidateThen returned")
	}
	flush := c.openEvent(nil)
	if insertSince(c.Epoch(), "/three", 3) {
		t.Error("an insert was accepted while a flush was open")
	}
	c.closeEvent(flush)
	if !insertSince(c.Epoch(), "/three", 3) {
		t.Fatal("the flush stayed open after it closed")
	}
}
