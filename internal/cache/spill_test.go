package cache

// Tests for the spill: an insert the L1 byte budget refuses (TinyLFU
// admission sides with the victim, or the page outweighs the whole budget)
// goes to the disk tier as a volatile record instead of being dropped. It is
// served and invalidated like any demoted page, costs a sweep no fsync, and
// is never restored by a boot.

import (
	"bytes"
	"sync"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache/l2"
)

// spillHot is how many pages fill the L1 of newSpillCache.
const spillHot = 6

// coldKey is the key no lookup ever asked for: admission refuses it.
const coldKey = 100

// newSpillCache returns a tiered cache with admission whose L1 is full of
// pages each looked up three times, so a page never asked for is refused
// admission.
func newSpillCache(t *testing.T, store *l2.Store) *Cache {
	t.Helper()
	c := newTestCache(t, Options{MaxBytes: 8 << 10, Admission: true, L2: store})
	for i := 0; i < spillHot; i++ {
		c.Insert(l2Key(i), l2Body(i), "text/html", []analysis.Query{l2Dep(i)}, 0)
		for j := 0; j < 3; j++ {
			c.Lookup(l2Key(i))
		}
	}
	if st := c.Snapshot(); st.Entries != spillHot || st.Evictions != 0 {
		t.Fatalf("hot set does not fill L1 exactly: %+v", st)
	}
	return c
}

// spillCold inserts the cold page and checks that it was spilled.
func spillCold(t *testing.T, c *Cache, store *l2.Store) {
	t.Helper()
	if _, stored := c.TryInsert(l2Key(coldKey), l2Body(coldKey), "text/html", []analysis.Query{l2Dep(coldKey)}, 0); !stored {
		t.Fatal("refused page reported as not stored with a disk tier attached")
	}
	st := c.Snapshot()
	if st.AdmissionRejects != 1 || st.Spills != 1 || st.Demotions != 0 {
		t.Fatalf("want one admission reject spilled, got %+v", st)
	}
	if c.Contains(l2Key(coldKey)) || !inTier(store, l2Key(coldKey)) {
		t.Fatal("spilled page is not disk-only")
	}
}

func TestSpillServesRefusedPage(t *testing.T) {
	store := newL2Store(t, t.TempDir(), 0)
	c := newSpillCache(t, store)
	defer c.Close()
	spillCold(t, c, store)
	pg, ok := c.Lookup(l2Key(coldKey))
	if !ok || !bytes.Equal(pg.Body, l2Body(coldKey)) {
		t.Fatalf("spilled page not served on the next lookup: ok=%v", ok)
	}
	if st := c.Snapshot(); st.L2.Hits != 1 {
		t.Fatalf("the disk tier did not answer: %+v", st.L2)
	}
}

// TestSpillOversizePage: a page larger than the whole L1 budget is spilled
// too, and is served from the disk tier.
func TestSpillOversizePage(t *testing.T) {
	store := newL2Store(t, t.TempDir(), 0)
	c := newTestCache(t, Options{MaxBytes: 1 << 10, L2: store})
	defer c.Close()
	big := bytes.Repeat([]byte("x"), 4<<10)
	if _, stored := c.TryInsert("/big", big, "text/html", []analysis.Query{l2Dep(1)}, 0); !stored {
		t.Fatal("oversize page not spilled")
	}
	if st := c.Snapshot(); st.OversizeRejects != 1 || st.Spills != 1 {
		t.Fatalf("want one oversize reject spilled, got %+v", st)
	}
	if pg, ok := c.Lookup("/big"); !ok || !bytes.Equal(pg.Body, big) {
		t.Fatalf("oversize page not served from the disk tier: ok=%v", ok)
	}
}

// TestSpillInvalidatedWithoutFsync: a write intersecting a spilled page
// removes it from the disk tier before InvalidateWrite returns, and the
// sweep costs the journal no fsync — a volatile record needs no tombstone.
func TestSpillInvalidatedWithoutFsync(t *testing.T) {
	store := newL2Store(t, t.TempDir(), 0)
	c := newSpillCache(t, store)
	defer c.Close()
	spillCold(t, c, store)
	syncs := c.Snapshot().L2.JournalSyncs
	n, err := c.InvalidateWrite(wcap("UPDATE T SET a = ? WHERE b = ?", int64(0), int64(coldKey)))
	if err != nil || n != 1 {
		t.Fatalf("InvalidateWrite = %d, %v; want the spilled page", n, err)
	}
	if inTier(store, l2Key(coldKey)) {
		t.Fatal("write returned with the spilled page still in the disk tier")
	}
	if _, ok := c.Lookup(l2Key(coldKey)); ok {
		t.Fatal("invalidated spilled page served")
	}
	if st := c.Snapshot(); st.L2.JournalSyncs != syncs || st.DepInstances != spillHot {
		t.Fatalf("journal syncs %d -> %d, dep instances %d (want %d)", syncs, st.L2.JournalSyncs, st.DepInstances, spillHot)
	}
}

// TestSpillNeverRestoredAfterCrash: a boot after the store was abandoned
// without Close restores the demoted page but never the spilled one.
func TestSpillNeverRestoredAfterCrash(t *testing.T) {
	dir := t.TempDir()
	store := newL2Store(t, dir, 0)
	c := newSpillCache(t, store)
	spillCold(t, c, store)
	// A page asked for more often than any resident one is admitted; its
	// victim is demoted durably.
	warm := spillHot + 1
	for j := 0; j < 8; j++ {
		c.Lookup(l2Key(warm))
	}
	c.Insert(l2Key(warm), l2Body(warm), "text/html", []analysis.Query{l2Dep(warm)}, 0)
	if st := c.Snapshot(); st.Demotions != 1 || st.Spills != 1 {
		t.Fatalf("want one demotion beside the spill: %+v", st)
	}
	store.Abandon()

	store = newL2Store(t, dir, 0)
	c = newTestCache(t, Options{MaxBytes: 8 << 10, Admission: true, L2: store})
	defer c.Close()
	if st := store.Snapshot(); st.RestoredEntries != 1 || st.ColdStarts != 0 {
		t.Fatalf("want the demoted page alone restored: %+v", st)
	}
	if _, ok := c.Lookup(l2Key(coldKey)); ok {
		t.Fatal("spilled page restored by a boot after a crash")
	}
	if st := c.Snapshot(); st.DepInstances != 1 {
		t.Fatalf("dependency links rebuilt for %d instances, want the demoted page's 1", st.DepInstances)
	}
}

// TestSpillPromotedThenClosedIsRestored: a page promoted from a volatile
// record and resident in L1 at Close is rewritten durably, so a clean
// restart serves it warm.
func TestSpillPromotedThenClosedIsRestored(t *testing.T) {
	dir := t.TempDir()
	store := newL2Store(t, dir, 0)
	c := newSpillCache(t, store)
	spillCold(t, c, store)
	// Free L1 room so the promotion needs no eviction, and no admission duel.
	for i := 0; i < 2; i++ {
		if _, err := c.InvalidateWrite(wcap("UPDATE T SET a = ? WHERE b = ?", int64(0), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := c.Lookup(l2Key(coldKey)); !ok {
		t.Fatal("spilled page not served")
	}
	if st := c.Snapshot(); st.Promotions != 1 || !c.Contains(l2Key(coldKey)) {
		t.Fatalf("spilled page not promoted into L1: %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	store = newL2Store(t, dir, 0)
	c = newTestCache(t, Options{MaxBytes: 8 << 10, Admission: true, L2: store})
	defer c.Close()
	pg, ok := c.Lookup(l2Key(coldKey))
	if !ok || !bytes.Equal(pg.Body, l2Body(coldKey)) {
		t.Fatalf("page promoted from a spill and resident at Close not restored: ok=%v", ok)
	}
}

// TestSpillRacesSweep: a spill racing an intersecting write never leaves
// the page in either tier once both have returned, whichever goroutine runs
// first — the InsertSince post-check drops what the sweep's scan missed.
func TestSpillRacesSweep(t *testing.T) {
	store := newL2Store(t, t.TempDir(), 0)
	c := newSpillCache(t, store)
	defer c.Close()
	const rounds = 200
	for r := 0; r < rounds; r++ {
		i := coldKey + r
		key := l2Key(i)
		epoch0 := c.Epoch()
		var wg sync.WaitGroup
		start := make(chan struct{})
		insert := func() {
			defer wg.Done()
			<-start
			c.InsertSince(epoch0, key, l2Body(i), "text/html", []analysis.Query{l2Dep(i)}, 0)
		}
		write := func() {
			defer wg.Done()
			<-start
			if _, err := c.InvalidateWrite(wcap("UPDATE T SET a = ? WHERE b = ?", int64(0), int64(i))); err != nil {
				t.Error(err)
			}
		}
		wg.Add(2)
		if r%2 == 0 {
			go insert()
			go write()
		} else {
			go write()
			go insert()
		}
		close(start)
		wg.Wait()
		if c.Contains(key) || inTier(store, key) {
			t.Fatalf("round %d: page outlived the write that raced its spill", r)
		}
	}
	st := c.Snapshot()
	if st.Spills == 0 {
		t.Fatalf("no round spilled: %+v", st)
	}
	if st.Demotions != 0 || st.DepInstances != spillHot {
		t.Fatalf("raced spills left links or demotions behind: %+v", st)
	}
}
