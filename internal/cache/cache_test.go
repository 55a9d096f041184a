package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/memdb"
)

func newTestCache(t *testing.T, opts Options) *Cache {
	t.Helper()
	if opts.Engine == nil {
		e, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
		if err != nil {
			t.Fatal(err)
		}
		opts.Engine = e
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func dep(sql string, args ...memdb.Value) analysis.Query {
	return analysis.Query{SQL: sql, Args: args}
}

func wcap(sql string, args ...memdb.Value) analysis.WriteCapture {
	return analysis.WriteCapture{Query: analysis.Query{SQL: sql, Args: args}}
}

func TestLookupMissThenHit(t *testing.T) {
	c := newTestCache(t, Options{})
	if _, ok := c.Lookup("/page?x=1"); ok {
		t.Fatal("unexpected hit")
	}
	c.Insert("/page?x=1", []byte("<html>1</html>"), "text/html", nil, 0)
	pg, ok := c.Lookup("/page?x=1")
	if !ok || string(pg.Body) != "<html>1</html>" || pg.ContentType != "text/html" {
		t.Fatalf("hit: %v %q %q", ok, pg.Body, pg.ContentType)
	}
	st := c.Snapshot()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestLookupReturnsSharedView pins the zero-copy contract: every hit hands
// out the same stored slice the insert returned, with no per-hit copy.
func TestLookupReturnsSharedView(t *testing.T) {
	c := newTestCache(t, Options{})
	stored := c.Insert("k", []byte("abc"), "text/html", nil, 0)
	pg1, _ := c.Lookup("k")
	pg2, _ := c.Lookup("k")
	if &pg1.Body[0] != &stored.Body[0] || &pg2.Body[0] != &stored.Body[0] {
		t.Fatal("Lookup copied the body instead of returning the stored view")
	}
	if string(pg1.Body) != "abc" || pg1.ContentType != "text/html" {
		t.Fatalf("view: %q %q", pg1.Body, pg1.ContentType)
	}
}

func TestInsertCopiesBody(t *testing.T) {
	c := newTestCache(t, Options{})
	b := []byte("abc")
	c.Insert("k", b, "text/html", nil, 0)
	b[0] = 'X'
	got, _ := c.Lookup("k")
	if string(got.Body) != "abc" {
		t.Fatal("cache aliased the caller's slice")
	}
}

func TestInvalidateByWrite(t *testing.T) {
	c := newTestCache(t, Options{})
	c.Insert("/view?b=1", []byte("p1"), "text/html",
		[]analysis.Query{dep("SELECT a FROM T WHERE b = ?", int64(1))}, 0)
	c.Insert("/view?b=2", []byte("p2"), "text/html",
		[]analysis.Query{dep("SELECT a FROM T WHERE b = ?", int64(2))}, 0)

	n, err := c.InvalidateWrite(wcap("UPDATE T SET a = ? WHERE b = ?", int64(7), int64(1)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("invalidated %d pages, want 1", n)
	}
	if c.Contains("/view?b=1") {
		t.Fatal("page b=1 should be invalidated")
	}
	if !c.Contains("/view?b=2") {
		t.Fatal("page b=2 should survive")
	}
	st := c.Snapshot()
	if st.Invalidations != 1 || st.WritesSeen != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestInvalidateSharedDependency(t *testing.T) {
	c := newTestCache(t, Options{})
	shared := dep("SELECT a FROM T WHERE b = ?", int64(1))
	c.Insert("/p1", []byte("1"), "text/html", []analysis.Query{shared}, 0)
	c.Insert("/p2", []byte("2"), "text/html", []analysis.Query{shared}, 0)
	n, err := c.InvalidateWrite(wcap("UPDATE T SET a = ? WHERE b = ?", int64(7), int64(1)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("invalidated %d, want 2", n)
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestWriteToUnrelatedTable(t *testing.T) {
	c := newTestCache(t, Options{})
	c.Insert("/p", []byte("x"), "text/html",
		[]analysis.Query{dep("SELECT a FROM T WHERE b = ?", int64(1))}, 0)
	n, err := c.InvalidateWrite(wcap("UPDATE other SET a = ? WHERE b = ?", int64(7), int64(1)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || !c.Contains("/p") {
		t.Fatalf("unrelated write invalidated the page (n=%d)", n)
	}
}

func TestPageWithMultipleDeps(t *testing.T) {
	c := newTestCache(t, Options{})
	c.Insert("/agg", []byte("x"), "text/html", []analysis.Query{
		dep("SELECT a FROM T WHERE b = ?", int64(1)),
		dep("SELECT x FROM S WHERE y = ?", int64(5)),
	}, 0)
	// A write intersecting either dependency kills the page.
	n, err := c.InvalidateWrite(wcap("UPDATE S SET x = ? WHERE y = ?", int64(1), int64(5)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("n = %d", n)
	}
	st := c.Snapshot()
	if st.DepTemplates != 0 || st.DepInstances != 0 {
		t.Fatalf("dependency table not cleaned: %+v", st)
	}
}

func TestReinsertReplacesEntry(t *testing.T) {
	c := newTestCache(t, Options{})
	c.Insert("/k", []byte("v1"), "text/html", []analysis.Query{dep("SELECT a FROM T WHERE b = ?", int64(1))}, 0)
	c.Insert("/k", []byte("v2"), "text/html", []analysis.Query{dep("SELECT a FROM T WHERE b = ?", int64(2))}, 0)
	pg, ok := c.Lookup("/k")
	if !ok || string(pg.Body) != "v2" {
		t.Fatalf("body: %q", pg.Body)
	}
	if c.Len() != 1 {
		t.Fatalf("len: %d", c.Len())
	}
	// Old dependency must be gone: a write on b=1 should not invalidate.
	n, err := c.InvalidateWrite(wcap("UPDATE T SET a = ? WHERE b = ?", int64(9), int64(1)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatal("stale dependency survived reinsert")
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := newTestCache(t, Options{Clock: clock})
	c.Insert("/k", []byte("v"), "text/html", nil, 30*time.Second)
	if _, ok := c.Lookup("/k"); !ok {
		t.Fatal("expected hit before expiry")
	}
	now = now.Add(31 * time.Second)
	if _, ok := c.Lookup("/k"); ok {
		t.Fatal("expected miss after expiry")
	}
	st := c.Snapshot()
	if st.Expirations != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if c.Len() != 0 {
		t.Fatal("expired entry not removed")
	}
}

func TestContainsRespectsExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newTestCache(t, Options{Clock: func() time.Time { return now }})
	c.Insert("/k", []byte("v"), "text/html", nil, time.Second)
	if !c.Contains("/k") {
		t.Fatal("expected contains")
	}
	now = now.Add(2 * time.Second)
	if c.Contains("/k") {
		t.Fatal("expired entry reported as contained")
	}
}

// TestExportAtExpiryInstant: at the exact expiry instant the entry is still
// visible, but a peer reads an exported TTL of 0 as "never expires". Export
// must ship a positive TTL or report a miss.
func TestExportAtExpiryInstant(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newTestCache(t, Options{Clock: func() time.Time { return now }})
	c.Insert("/k", []byte("v"), "text/html", nil, 30*time.Second)
	now = now.Add(30 * time.Second)
	if v, ok := c.Export("/k"); ok && v.TTL <= 0 {
		t.Fatalf("Export at the expiry instant: ok=%v TTL=%v", ok, v.TTL)
	}
}

func TestInvalidateKey(t *testing.T) {
	c := newTestCache(t, Options{})
	c.Insert("/k", []byte("v"), "text/html", nil, 0)
	if !c.InvalidateKey("/k") {
		t.Fatal("expected removal")
	}
	if c.InvalidateKey("/k") {
		t.Fatal("double removal")
	}
}

func TestFlush(t *testing.T) {
	c := newTestCache(t, Options{})
	c.Insert("/a", []byte("1"), "text/html", []analysis.Query{dep("SELECT a FROM T WHERE b = ?", int64(1))}, 0)
	c.Insert("/b", []byte("2"), "text/html", nil, 0)
	c.Flush()
	st := c.Snapshot()
	if st.Entries != 0 || st.DepTemplates != 0 {
		t.Fatalf("stats after flush: %+v", st)
	}
}

// onePageBytes measures the accounted cost of one small page with no
// dependencies, so capacity tests can size a byte budget in pages.
func onePageBytes(t *testing.T, key string) int64 {
	t.Helper()
	c := newTestCache(t, Options{})
	c.Insert(key, []byte("x"), "text/html", nil, 0)
	return c.Snapshot().Bytes
}

func TestCapacityLRU(t *testing.T) {
	// Room for three equal-cost pages, not four.
	one := onePageBytes(t, "/p0")
	c := newTestCache(t, Options{MaxBytes: 3*one + one/2})
	for i := 0; i < 3; i++ {
		c.Insert(fmt.Sprintf("/p%d", i), []byte("x"), "text/html", nil, 0)
	}
	// Touch p0 so p1 becomes the LRU victim.
	if _, ok := c.Lookup("/p0"); !ok {
		t.Fatal("p0 missing")
	}
	c.Insert("/p3", []byte("x"), "text/html", nil, 0)
	if c.Contains("/p1") {
		t.Fatal("p1 should have been evicted")
	}
	if !c.Contains("/p0") || !c.Contains("/p2") || !c.Contains("/p3") {
		t.Fatal("wrong eviction victim")
	}
	if st := c.Snapshot(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestCapacityNeverExceeded: cycling thirteen pages through room for five
// never takes the cache past its byte budget, with or without admission.
func TestCapacityNeverExceeded(t *testing.T) {
	max := 5 * onePageBytes(t, "/p0")
	for _, admission := range []bool{false, true} {
		name := "SLRU"
		if admission {
			name = "SLRU+TinyLFU"
		}
		t.Run(name, func(t *testing.T) {
			c := newTestCache(t, Options{MaxBytes: max, Admission: admission})
			for i := 0; i < 100; i++ {
				c.Insert(fmt.Sprintf("/p%d", i%13), []byte("x"), "text/html", nil, 0)
				if n := c.Bytes(); n > max {
					t.Fatalf("bytes %d exceed MaxBytes %d", n, max)
				}
			}
			// Admission may hold the budget by refusing newcomers instead.
			if st := c.Snapshot(); st.Evictions+st.AdmissionRejects == 0 || !admission && st.Evictions == 0 {
				t.Fatalf("bound never exercised: %+v", st)
			}
		})
	}
}

func TestNewValidation(t *testing.T) {
	e, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{}); err == nil {
		t.Error("expected error for missing engine")
	}
	if _, err := New(Options{Engine: e, MaxBytes: -1}); err == nil {
		t.Error("expected error for negative capacity")
	}
	if _, err := New(Options{Engine: e, Admission: true}); err == nil {
		t.Error("expected error for Admission without MaxBytes")
	}
}

func TestConcurrentCacheAccess(t *testing.T) {
	c := newTestCache(t, Options{MaxBytes: 8 << 10})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("/p%d", (g*7+i)%40)
				if _, ok := c.Lookup(key); !ok {
					c.Insert(key, []byte("body"), "text/html",
						[]analysis.Query{dep("SELECT a FROM T WHERE b = ?", int64(i%5))}, 0)
				}
				if i%17 == 0 {
					if _, err := c.InvalidateWrite(wcap("UPDATE T SET a = ? WHERE b = ?", int64(i), int64(i%5))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDepTableTracksInstances(t *testing.T) {
	c := newTestCache(t, Options{})
	c.Insert("/p1", []byte("1"), "text/html", []analysis.Query{dep("SELECT a FROM T WHERE b = ?", int64(1))}, 0)
	c.Insert("/p2", []byte("2"), "text/html", []analysis.Query{dep("SELECT a FROM T WHERE b = ?", int64(2))}, 0)
	st := c.Snapshot()
	if st.DepTemplates != 1 {
		t.Fatalf("templates: %d", st.DepTemplates)
	}
	if st.DepInstances != 2 {
		t.Fatalf("instances: %d", st.DepInstances)
	}
}
