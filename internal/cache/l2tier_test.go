package cache

// Integration tests for the disk (L2) tier: demote/promote movement,
// cross-tier invalidation (the §3.2 guarantee extended to disk-resident
// pages), warm restart without resurrection, spill-on-close, and the
// byte-accounting drain audit.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache/l2"
)

func newL2Store(t *testing.T, dir string, maxBytes int64) *l2.Store {
	t.Helper()
	s, err := l2.Open(l2.Options{Dir: dir, MaxBytes: maxBytes, SnapshotInterval: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// inTier reports whether the disk tier holds a live record for key.
func inTier(s *l2.Store, key string) bool {
	_, ok := s.Deps(key)
	return ok
}

func l2Key(i int) string  { return fmt.Sprintf("/p?id=%d", i) }
func l2Body(i int) []byte { return []byte(strings.Repeat(fmt.Sprintf("<b%d>", i), 256)) }
func l2Dep(i int) analysis.Query {
	return dep("SELECT a FROM T WHERE b = ?", int64(i))
}

func TestL2DemoteAndPromote(t *testing.T) {
	store := newL2Store(t, t.TempDir(), 0)
	c := newTestCache(t, Options{MaxBytes: 8 << 10, L2: store})
	defer c.Close()

	const n = 16
	for i := 0; i < n; i++ {
		c.Insert(l2Key(i), l2Body(i), "text/html", []analysis.Query{l2Dep(i)}, 0)
	}
	st := c.Snapshot()
	if st.Demotions == 0 {
		t.Fatalf("byte pressure produced no demotions: %+v", st)
	}
	// Find a key that fell out of L1 — it must still be answerable, bit-exact,
	// from the disk tier.
	victim := -1
	for i := 0; i < n; i++ {
		if !c.Contains(l2Key(i)) {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no key left L1 despite demotions")
	}
	if !inTier(store, l2Key(victim)) {
		t.Fatalf("demoted key %d not in the store", victim)
	}
	pg, ok := c.Lookup(l2Key(victim))
	if !ok || !bytes.Equal(pg.Body, l2Body(victim)) {
		t.Fatalf("disk-tier serve: ok=%v", ok)
	}
	st = c.Snapshot()
	if st.L2.Hits == 0 {
		t.Fatalf("store answered but counted no hit: %+v", st.L2)
	}
	if st.Promotions == 0 && st.PromoteAborts == 0 && st.L2.Hits > 0 {
		// The serve may legitimately stay disk-resident (budget refusal), but
		// under an 8 KiB budget with ~1 KiB pages the reservation must fit.
		t.Fatalf("promotion neither admitted nor aborted: %+v", st)
	}
}

// TestL2InvalidateWriteSweepsDiskTier pins the tentpole consistency rule:
// a write must remove overlapping pages from BOTH tiers before it returns,
// including pages resident only on disk.
func TestL2InvalidateWriteSweepsDiskTier(t *testing.T) {
	store := newL2Store(t, t.TempDir(), 0)
	c := newTestCache(t, Options{MaxBytes: 4 << 10, L2: store})
	defer c.Close()

	// Enough inserts that the first key is demoted out of L1.
	const n = 12
	for i := 0; i < n; i++ {
		c.Insert(l2Key(i), l2Body(i), "text/html", []analysis.Query{l2Dep(i)}, 0)
	}
	target := -1
	for i := 0; i < n; i++ {
		if !c.Contains(l2Key(i)) && inTier(store, l2Key(i)) {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("no disk-only resident key to invalidate")
	}
	n2, err := c.InvalidateWrite(wcap("UPDATE T SET a = ? WHERE b = ?", int64(0), int64(target)))
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 1 {
		t.Fatalf("invalidated %d pages, want 1 (disk-only resident)", n2)
	}
	if inTier(store, l2Key(target)) {
		t.Fatal("write returned with the stale page still disk-resident")
	}
	if _, ok := c.Lookup(l2Key(target)); ok {
		t.Fatal("invalidated page served from some tier")
	}
	// The dependency table must be clean for the swept key.
	if st := c.Snapshot(); st.Invalidations == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestL2WarmRestartNoResurrection is the §3.2 restart property: an
// invalidation acknowledged before a crash must hold across the restart —
// the swept key must not come back from a snapshot, a journal replay, or a
// surviving segment record.
func TestL2WarmRestartNoResurrection(t *testing.T) {
	dir := t.TempDir()
	store := newL2Store(t, dir, 0)
	c := newTestCache(t, Options{L2: store})
	for i := 0; i < 4; i++ {
		c.Insert(l2Key(i), l2Body(i), "text/html", []analysis.Query{l2Dep(i)}, 0)
	}
	if err := c.Close(); err != nil { // clean shutdown: spill + snapshot
		t.Fatal(err)
	}

	// Warm restart: every spilled page must be promotable, bit-exact.
	store = newL2Store(t, dir, 0)
	if st := store.Snapshot(); st.RestoredEntries != 4 {
		t.Fatalf("restored %d entries, want 4", st.RestoredEntries)
	}
	c = newTestCache(t, Options{L2: store})
	for i := 0; i < 4; i++ {
		pg, ok := c.Lookup(l2Key(i))
		if !ok || !bytes.Equal(pg.Body, l2Body(i)) {
			t.Fatalf("warm lookup %d: ok=%v", i, ok)
		}
	}
	if st := c.Snapshot(); st.Promotions == 0 {
		t.Fatalf("warm hits promoted nothing: %+v", st)
	}

	// Invalidate one key, then crash WITHOUT a clean close. The tombstone
	// was fsync'd before InvalidateWrite returned, so it must survive.
	if n, err := c.InvalidateWrite(wcap("UPDATE T SET a = ? WHERE b = ?", int64(9), int64(2))); err != nil || n != 1 {
		t.Fatalf("invalidate: n=%d err=%v", n, err)
	}
	store.Abandon()

	store = newL2Store(t, dir, 0)
	c = newTestCache(t, Options{L2: store})
	defer c.Close()
	if _, ok := c.Lookup(l2Key(2)); ok {
		t.Fatal("invalidated page resurrected after crash restart")
	}
	for _, i := range []int{0, 1, 3} {
		if pg, ok := c.Lookup(l2Key(i)); !ok || !bytes.Equal(pg.Body, l2Body(i)) {
			t.Fatalf("survivor %d lost or corrupted after crash restart: ok=%v", i, ok)
		}
	}
}

// TestL2FlushSweepsBothTiers: Flush must empty the disk tier too, durably.
func TestL2FlushSweepsBothTiers(t *testing.T) {
	dir := t.TempDir()
	store := newL2Store(t, dir, 0)
	c := newTestCache(t, Options{MaxBytes: 4 << 10, L2: store})
	for i := 0; i < 12; i++ {
		c.Insert(l2Key(i), l2Body(i), "text/html", []analysis.Query{l2Dep(i)}, 0)
	}
	c.Flush()
	st := c.Snapshot()
	if st.Entries != 0 || st.L2.Entries != 0 {
		t.Fatalf("flush left residents: %+v", st)
	}
	if st.DepTemplates != 0 || st.DepInstances != 0 {
		t.Fatalf("flush left dependency state: %+v", st)
	}
	// The flush marker is durable: even a crash right after must not bring
	// any page back.
	store.Abandon()
	store = newL2Store(t, dir, 0)
	defer store.Close()
	if st := store.Snapshot(); st.Entries != 0 {
		t.Fatalf("flushed pages survived restart: %+v", st)
	}
}

// TestL2DrainBalancesToZero is the byte-accounting audit: after heavy churn
// — gzip variants, demotions, promotions, reinserts, invalidations — a full
// drain must leave every byte counter at exactly zero. Any removal path
// that forgets to release its share shows up here as a residue.
func TestL2DrainBalancesToZero(t *testing.T) {
	store := newL2Store(t, t.TempDir(), 32<<10)
	c := newTestCache(t, Options{MaxBytes: 24 << 10, Gzip: true, L2: store})
	defer c.Close()

	const keys = 40
	for round := 0; round < 6; round++ {
		for i := 0; i < keys; i++ {
			k := l2Key(i)
			if _, ok := c.Lookup(k); !ok { // misses promote or regenerate
				// Compressible body so a gzip variant is built and charged.
				body := []byte(strings.Repeat(fmt.Sprintf("row %d round %d |", i, round), 64))
				c.Insert(k, body, "text/html", []analysis.Query{l2Dep(i % 7)}, 0)
			}
			if i%5 == round%5 {
				// Reinsert over a live entry (replace path + stale-L2 drop).
				c.Insert(k, []byte(strings.Repeat("fresh ", 128)), "text/html",
					[]analysis.Query{l2Dep(i % 7)}, 0)
			}
		}
		if _, err := c.InvalidateWrite(wcap("UPDATE T SET a = ? WHERE b = ?", int64(round), int64(round%7))); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Snapshot()
	if st.Demotions == 0 || st.GzipCompressions == 0 {
		t.Fatalf("churn did not exercise the paths under audit: %+v", st)
	}

	// Drain: flush both tiers, then verify the ledger is exactly balanced.
	c.Flush()
	st = c.Snapshot()
	if st.Bytes != 0 {
		t.Fatalf("Bytes leaked: %d after full drain", st.Bytes)
	}
	if st.VariantBytes != 0 {
		t.Fatalf("VariantBytes leaked: %d after full drain", st.VariantBytes)
	}
	if st.Entries != 0 || st.L2.Entries != 0 || st.L2.Bytes != 0 {
		t.Fatalf("residents after drain: %+v", st)
	}
	if st.DepTemplates != 0 || st.DepInstances != 0 {
		t.Fatalf("dependency table not empty after drain: %+v", st)
	}
	if st.ProbationBytes != 0 || st.ProtectedBytes != 0 {
		t.Fatalf("segment byte counters leaked: %+v", st)
	}
	for i := range c.shards {
		if b := c.shards[i].bytes.Load(); b != 0 {
			t.Fatalf("shard %d byte counter leaked: %d", i, b)
		}
	}
}

// TestCacheCloseSpillsWithoutPressure: a clean shutdown must spill every
// L1-resident page even when the byte budget never forced a demotion, so
// the next boot serves them without touching the database.
func TestCacheCloseSpillsWithoutPressure(t *testing.T) {
	dir := t.TempDir()
	store := newL2Store(t, dir, 0)
	c := newTestCache(t, Options{L2: store}) // no MaxBytes: nothing evicts
	for i := 0; i < 3; i++ {
		c.Insert(l2Key(i), l2Body(i), "text/html", []analysis.Query{l2Dep(i)}, 0)
	}
	if st := c.Snapshot(); st.Demotions != 0 {
		t.Fatalf("premature demotions: %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	store = newL2Store(t, dir, 0)
	c = newTestCache(t, Options{L2: store})
	defer c.Close()
	for i := 0; i < 3; i++ {
		pg, ok := c.Lookup(l2Key(i))
		if !ok || !bytes.Equal(pg.Body, l2Body(i)) {
			t.Fatalf("spilled page %d not served warm: ok=%v", i, ok)
		}
	}
	if st := c.Snapshot(); st.Promotions != 3 {
		t.Fatalf("want 3 promotions, got %+v", st)
	}
}

// TestL2UnreadableRecordMissesAndUnlinks: a demoted page whose disk record
// no longer reads back is a miss, counted by the tier, and its dependency
// links go with it. Regenerated and demoted again, the page promotes back.
func TestL2UnreadableRecordMissesAndUnlinks(t *testing.T) {
	dir := t.TempDir()
	store := newL2Store(t, dir, 0)
	c := newTestCache(t, Options{MaxBytes: 4 << 10, L2: store})
	defer c.Close()
	const n = 12
	for i := 0; i < n; i++ {
		c.Insert(l2Key(i), l2Body(i), "text/html", []analysis.Query{l2Dep(i)}, 0)
	}
	victim := -1
	for i := 0; i < n && victim < 0; i++ {
		if !c.Contains(l2Key(i)) && inTier(store, l2Key(i)) {
			victim = i
		}
	}
	if victim < 0 {
		t.Fatal("no disk-only key")
	}
	// Flip one byte of the victim's body on disk.
	seg, err := os.OpenFile(filepath.Join(dir, "seg-00000000.l2"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(seg)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(b, l2Body(victim))
	if at < 0 {
		t.Fatal("victim body not found in the segment")
	}
	if _, err := seg.WriteAt([]byte{b[at+100] ^ 0xff}, int64(at+100)); err != nil {
		t.Fatal(err)
	}
	seg.Close()

	before := c.Snapshot()
	if _, ok := c.Lookup(l2Key(victim)); ok {
		t.Fatal("a corrupted disk record was served")
	}
	after := c.Snapshot()
	if after.L2.Misses != before.L2.Misses+1 {
		t.Fatalf("L2 misses %d -> %d, want one more", before.L2.Misses, after.L2.Misses)
	}
	if after.DepInstances != before.DepInstances-1 {
		t.Fatalf("dependency instances %d -> %d, want the victim's unlinked", before.DepInstances, after.DepInstances)
	}
	if inTier(store, l2Key(victim)) {
		t.Fatal("the unreadable record is still indexed")
	}

	// Regenerate the page and push it out of L1 again: the path still works.
	c.Insert(l2Key(victim), l2Body(victim), "text/html", []analysis.Query{l2Dep(victim)}, 0)
	for i := n; i < 2*n && c.Contains(l2Key(victim)); i++ {
		c.Insert(l2Key(i), l2Body(i), "text/html", []analysis.Query{l2Dep(i)}, 0)
	}
	if c.Contains(l2Key(victim)) || !inTier(store, l2Key(victim)) {
		t.Fatal("the regenerated page was not demoted")
	}
	promotions := c.Snapshot().Promotions
	if pg, ok := c.Lookup(l2Key(victim)); !ok || !bytes.Equal(pg.Body, l2Body(victim)) {
		t.Fatalf("regenerated page not served from disk: ok=%v", ok)
	}
	if st := c.Snapshot(); st.Promotions != promotions+1 {
		t.Fatalf("promotions %d -> %d, want one more", promotions, st.Promotions)
	}
}

// TestL2TTLCarriesAcrossDemotion: the remaining TTL rides the demoted
// record; an expired disk record is a miss, never a stale serve.
func TestL2TTLCarriesAcrossDemotion(t *testing.T) {
	now := time.Unix(5000, 0)
	clock := func() time.Time { return now }
	store, err := l2.Open(l2.Options{Dir: t.TempDir(), SnapshotInterval: -1, Clock: clock, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCache(t, Options{MaxBytes: 4 << 10, L2: store, Clock: clock})
	defer c.Close()
	const n = 12
	for i := 0; i < n; i++ {
		c.Insert(l2Key(i), l2Body(i), "text/html", nil, time.Minute)
	}
	victim := -1
	for i := 0; i < n; i++ {
		if !c.Contains(l2Key(i)) && inTier(store, l2Key(i)) {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no demoted key")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.Lookup(l2Key(victim)); ok {
		t.Fatal("expired disk record served")
	}
}

// TestL2HitPathZeroAlloc guards the tier-attachment constraint: an L1 hit
// must not touch the store (the probe is miss-path only), so attaching a
// disk tier keeps the warm Lookup at 0 allocs/op.
func TestL2HitPathZeroAlloc(t *testing.T) {
	store := newL2Store(t, t.TempDir(), 0)
	c := newTestCache(t, Options{MaxBytes: 1 << 20, L2: store})
	defer c.Close()
	c.Insert("/hot", l2Body(0), "text/html", []analysis.Query{l2Dep(0)}, 0)
	c.Lookup("/hot") // one-time probation->protected promotion
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Lookup("/hot"); !ok {
			t.Fatal("unexpected miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("L1 hit with a disk tier attached allocates %.1f/op, want 0", allocs)
	}
	if st := c.Snapshot(); st.L2.Hits+st.L2.Misses != 0 {
		t.Fatalf("hit path touched the store: %+v", st.L2)
	}
}
