package autowebcache_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"

	"autowebcache"
	"autowebcache/internal/analysis"
	"autowebcache/internal/bench"
	"autowebcache/internal/cache"
	"autowebcache/internal/memdb"
	"autowebcache/internal/rubis"
	"autowebcache/internal/sqlparser"
	"autowebcache/internal/weave"
)

// Experiment benchmarks: one per paper table/figure, each regenerating the
// experiment at the Fast effort. `go run ./cmd/experiments` prints the
// full-effort tables.

func benchFigure(b *testing.B, fn func(bench.Params) (*bench.Table, error)) {
	b.Helper()
	p := bench.Fast()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := fn(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig04AnalysisCache(b *testing.B)     { benchFigure(b, bench.Fig4) }
func BenchmarkFig13RubisResponseTime(b *testing.B) { benchFigure(b, bench.Fig13) }
func BenchmarkFig14TpcwResponseTime(b *testing.B)  { benchFigure(b, bench.Fig14) }
func BenchmarkFig15Semantics(b *testing.B)         { benchFigure(b, bench.Fig15) }
func BenchmarkFig16RubisPerRequest(b *testing.B)   { benchFigure(b, bench.Fig16) }
func BenchmarkFig17TpcwPerRequest(b *testing.B)    { benchFigure(b, bench.Fig17) }
func BenchmarkFig18RubisBreakdown(b *testing.B)    { benchFigure(b, bench.Fig18) }
func BenchmarkFig19TpcwBreakdown(b *testing.B)     { benchFigure(b, bench.Fig19) }

func BenchmarkFig20CodeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig20("."); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStrategies(b *testing.B) { benchFigure(b, bench.AblationStrategies) }

func BenchmarkAblationReplacement(b *testing.B) { benchFigure(b, bench.AblationReplacement) }

// Micro-benchmarks of the hot paths underlying the figures.

func BenchmarkSQLParse(b *testing.B) {
	const q = "SELECT items.id, items.name FROM items JOIN users ON items.seller = users.id WHERE users.region = ? AND items.category = ? ORDER BY items.end_date ASC LIMIT 25"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparser.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemdbIndexedSelect(b *testing.B) {
	db := memdb.New()
	db.MustCreateTable(memdb.TableSpec{
		Name: "t",
		Columns: []memdb.Column{
			{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
			{Name: "grp", Type: memdb.TypeInt},
			{Name: "val", Type: memdb.TypeString},
		},
		Indexed: []string{"grp"},
	})
	ctx := context.Background()
	for i := 0; i < 10000; i++ {
		if _, err := db.Exec(ctx, "INSERT INTO t (grp, val) VALUES (?, ?)", i%100, "v"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(ctx, "SELECT id, val FROM t WHERE grp = ?", i%100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemdbScanSelect(b *testing.B) {
	db := memdb.New()
	db.MustCreateTable(memdb.TableSpec{
		Name: "t",
		Columns: []memdb.Column{
			{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
			{Name: "grp", Type: memdb.TypeInt},
		},
	})
	ctx := context.Background()
	for i := 0; i < 5000; i++ {
		if _, err := db.Exec(ctx, "INSERT INTO t (grp) VALUES (?)", i%100); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(ctx, "SELECT id FROM t WHERE grp = ?", i%100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheLookupHit(b *testing.B) {
	eng, err := analysis.NewEngine(analysis.StrategyExtraQuery, nil)
	if err != nil {
		b.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: eng})
	if err != nil {
		b.Fatal(err)
	}
	body := make([]byte, 4096)
	c.Insert("/page?x=1", body, "text/html", []analysis.Query{
		{SQL: "SELECT a FROM t WHERE b = ?", Args: []memdb.Value{int64(1)}},
	}, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Lookup("/page?x=1"); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkCacheInvalidateWrite(b *testing.B) {
	eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		b.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: eng})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		c.Insert(fmt.Sprintf("/page?x=%d", i), []byte("body"), "text/html", []analysis.Query{
			{SQL: "SELECT a FROM t WHERE b = ?", Args: []memdb.Value{int64(i)}},
		}, 0)
	}
	w := analysis.WriteCapture{Query: analysis.Query{
		SQL: "UPDATE t SET a = ? WHERE b = ?", Args: []memdb.Value{int64(1), int64(-1)},
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.InvalidateWrite(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalysisIntersects(b *testing.B) {
	eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		b.Fatal(err)
	}
	read := analysis.Query{SQL: "SELECT a FROM t WHERE b = ?", Args: []memdb.Value{int64(1)}}
	write := analysis.WriteCapture{Query: analysis.Query{
		SQL: "UPDATE t SET a = ? WHERE b = ?", Args: []memdb.Value{int64(9), int64(2)},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Intersects(read, write); err != nil {
			b.Fatal(err)
		}
	}
}

// newParallelCache builds a page cache pre-loaded with nKeys pages, each
// depending on one read-query instance, for the parallel benchmarks.
func newParallelCache(b *testing.B, nKeys int) (*cache.Cache, []string) {
	b.Helper()
	eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		b.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: eng})
	if err != nil {
		b.Fatal(err)
	}
	body := make([]byte, 1024)
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("/page?x=%d", i)
		c.Insert(keys[i], body, "text/html", []analysis.Query{
			{SQL: "SELECT a FROM t WHERE b = ?", Args: []memdb.Value{int64(i)}},
		}, 0)
	}
	return c, keys
}

// BenchmarkLookupParallel measures page-cache hit throughput under
// concurrent readers (run with -cpu 8 for the 8-goroutine figure). This is
// the hot path the sharded page table is designed to scale: before the
// lock-striping every Lookup serialised behind one cache-wide mutex.
func BenchmarkLookupParallel(b *testing.B) {
	c, keys := newParallelCache(b, 512)
	mask := len(keys) - 1
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := c.Lookup(keys[i&mask]); !ok {
				b.Fatal("unexpected miss")
			}
			i += 7 // co-prime stride: spread goroutines over distinct keys
		}
	})
}

// BenchmarkMixedParallel measures a read-dominated mix (lookups with
// periodic inserts and write invalidations) under concurrent clients — the
// shape of the paper's RUBiS bidding mix (85% reads).
func BenchmarkMixedParallel(b *testing.B) {
	c, keys := newParallelCache(b, 512)
	mask := len(keys) - 1
	body := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			k := (i * 7) & mask
			switch {
			case i%32 == 0:
				c.Insert(keys[k], body, "text/html", []analysis.Query{
					{SQL: "SELECT a FROM t WHERE b = ?", Args: []memdb.Value{int64(k)}},
				}, 0)
			case i%64 == 1:
				w := analysis.WriteCapture{Query: analysis.Query{
					SQL: "UPDATE t SET a = ? WHERE b = ?", Args: []memdb.Value{int64(1), int64(k)},
				}}
				if _, err := c.InvalidateWrite(w); err != nil {
					b.Fatal(err)
				}
			default:
				c.Lookup(keys[k])
			}
		}
	})
}

// BenchmarkWovenHitPath measures the full request path on a cache hit.
func BenchmarkWovenHitPath(b *testing.B) {
	db := autowebcache.NewDB()
	if err := db.CreateTable(autowebcache.TableSpec{
		Name: "notes",
		Columns: []autowebcache.Column{
			{Name: "id", Type: autowebcache.TypeInt, AutoIncrement: true},
			{Name: "note", Type: autowebcache.TypeString},
		},
	}); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(context.Background(), "INSERT INTO notes (note) VALUES ('x')"); err != nil {
		b.Fatal(err)
	}
	rt, err := autowebcache.New(db, autowebcache.Config{})
	if err != nil {
		b.Fatal(err)
	}
	conn := rt.Conn()
	handlers := []autowebcache.HandlerInfo{{
		Name: "List", Path: "/list",
		Fn: func(w http.ResponseWriter, r *http.Request) {
			rows, err := conn.Query(r.Context(), "SELECT note FROM notes")
			if err != nil {
				http.Error(w, err.Error(), 500)
				return
			}
			_, _ = w.Write([]byte(rows.Str(0, 0)))
		},
	}}
	h, err := rt.Weave(handlers, autowebcache.Rules{})
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/list", nil)
	h.ServeHTTP(httptest.NewRecorder(), req) // prime
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
	}
}

// BenchmarkCoalescedMiss measures the thundering-herd path: every iteration
// flushes the cache and fires 8 concurrent requests at one cold key; the
// single-flight advice runs the handler once and the other 7 requests share
// the inserted body. Reported ns/op is per 8-request round.
func BenchmarkCoalescedMiss(b *testing.B) {
	db := autowebcache.NewDB()
	if err := db.CreateTable(autowebcache.TableSpec{
		Name: "notes",
		Columns: []autowebcache.Column{
			{Name: "id", Type: autowebcache.TypeInt, AutoIncrement: true},
			{Name: "note", Type: autowebcache.TypeString},
		},
	}); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(context.Background(), "INSERT INTO notes (note) VALUES ('x')"); err != nil {
		b.Fatal(err)
	}
	rt, err := autowebcache.New(db, autowebcache.Config{})
	if err != nil {
		b.Fatal(err)
	}
	conn := rt.Conn()
	handlers := []autowebcache.HandlerInfo{{
		Name: "List", Path: "/list",
		Fn: func(w http.ResponseWriter, r *http.Request) {
			rows, err := conn.Query(r.Context(), "SELECT note FROM notes")
			if err != nil {
				http.Error(w, err.Error(), 500)
				return
			}
			_, _ = w.Write([]byte(rows.Str(0, 0)))
		},
	}}
	h, err := rt.Weave(handlers, autowebcache.Rules{})
	if err != nil {
		b.Fatal(err)
	}
	const herd = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Cache().Flush()
		var wg sync.WaitGroup
		for g := 0; g < herd; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := httptest.NewRequest(http.MethodGet, "/list", nil)
				h.ServeHTTP(httptest.NewRecorder(), req)
			}()
		}
		wg.Wait()
	}
}

// sweepFixture is a page cache holding RUBiS-shaped pages under their real
// read templates, with the write captures of one StoreBid request (INSERT
// INTO bids, then UPDATE items), for timing the write sweep on a populated
// dependency table.
type sweepFixture struct {
	cache *cache.Cache
	// pages maps a page key to the read instances its handler issued.
	pages map[string][]analysis.Query
	// storeBid holds the request's captures, each with the rows it touched.
	storeBid []analysis.WriteCapture
}

// newSweepFixture serves the bidding mix through a woven RUBiS whose cache
// misses every lookup, recording each read page's dependency set and the
// captures of one StoreBid, then inserts every recorded page into a fresh
// cache sharing the engine.
func newSweepFixture(tb testing.TB) *sweepFixture {
	tb.Helper()
	scale := rubis.Scale{Regions: 5, Categories: 10, Users: 100, Items: 300,
		BidsPerItem: 3, CommentsPerUser: 2, BuyNows: 20, Seed: 5}
	db := memdb.New()
	last, err := rubis.Load(db, scale)
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		tb.Fatal(err)
	}
	f := &sweepFixture{pages: make(map[string][]analysis.Query)}
	handlers := rubis.New(weave.NewConn(db, eng), scale, last).Handlers()
	for i, h := range handlers {
		fn, name, write := h.Fn, h.Name, h.Write
		handlers[i].Fn = func(w http.ResponseWriter, r *http.Request) {
			fn(w, r)
			rec, _ := weave.RecorderFrom(r.Context())
			switch {
			case !write && len(rec.Reads()) > 0:
				f.pages[r.URL.RequestURI()] = rec.Reads()
			case name == "StoreBid" && f.storeBid == nil:
				f.storeBid = rec.Writes()
			}
		}
	}
	miss, err := cache.New(cache.Options{Engine: eng, ForceMiss: true})
	if err != nil {
		tb.Fatal(err)
	}
	woven, err := weave.New(handlers, miss, weave.Rules{})
	if err != nil {
		tb.Fatal(err)
	}
	mix := rubis.BiddingMix(scale)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000 || f.storeBid == nil; i++ {
		_, target := mix.Request(rng, i%16)
		woven.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, target, nil))
	}
	if len(f.storeBid) != 2 {
		tb.Fatalf("StoreBid captured %d writes, want 2", len(f.storeBid))
	}
	if f.cache, err = cache.New(cache.Options{Engine: eng}); err != nil {
		tb.Fatal(err)
	}
	for key := range f.pages {
		f.insert(key)
	}
	return f
}

func (f *sweepFixture) insert(key string) {
	f.cache.Insert(key, []byte("<html>page</html>"), "text/html", slices.Clone(f.pages[key]), 0)
}

// victims sweeps ws once and returns the keys it removed, re-inserted.
func (f *sweepFixture) victims(tb testing.TB, ws []analysis.WriteCapture) []string {
	tb.Helper()
	if _, err := f.cache.InvalidateWrite(ws...); err != nil {
		tb.Fatal(err)
	}
	var gone []string
	for key := range f.pages {
		if !f.cache.Contains(key) {
			gone = append(gone, key)
			f.insert(key)
		}
	}
	if len(gone) == 0 {
		tb.Fatal("the write removed no page: the fixture times an empty sweep")
	}
	return gone
}

// sweepCases are the timed sweeps: the request's first capture alone, and
// the whole two-capture request.
func (f *sweepFixture) sweepCases() []struct {
	name string
	ws   []analysis.WriteCapture
} {
	return []struct {
		name string
		ws   []analysis.WriteCapture
	}{{"OneCapture", f.storeBid[:1]}, {"StoreBid", f.storeBid}}
}

// BenchmarkCacheSweep times InvalidateWrite on a cache of RUBiS pages; each
// iteration's victims are re-inserted with the timer stopped, so every
// sweep removes the same pages.
func BenchmarkCacheSweep(b *testing.B) {
	f := newSweepFixture(b)
	for _, tc := range f.sweepCases() {
		b.Run(tc.name, func(b *testing.B) {
			gone := f.victims(b, tc.ws)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := f.cache.InvalidateWrite(tc.ws...)
				if err != nil || n != len(gone) {
					b.Fatalf("sweep removed %d pages (%v), want %d", n, err, len(gone))
				}
				b.StopTimer()
				for _, key := range gone {
					f.insert(key)
				}
				b.StartTimer()
			}
		})
	}
}

// TestCacheSweepAllocs pins what BenchmarkCacheSweep measures: the
// allocations of one sweep on the populated cache, re-inserts excluded. A
// sweep allocates for preparing each write, its open events and what its
// intersection tests build, not per template or per linked key. The least
// count over the runs is judged, since the race detector makes sync.Pool
// drop the recycled scratch at random.
func TestCacheSweepAllocs(t *testing.T) {
	want := map[string]uint64{"OneCapture": 6, "StoreBid": 31}
	f := newSweepFixture(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range f.sweepCases() {
		gone := f.victims(t, tc.ws)
		const runs = 50
		least := ^uint64(0)
		var before, after runtime.MemStats
		for i := 0; i < runs; i++ {
			runtime.ReadMemStats(&before)
			n, err := f.cache.InvalidateWrite(tc.ws...)
			runtime.ReadMemStats(&after)
			if err != nil || n != len(gone) {
				t.Fatalf("%s: sweep removed %d pages (%v), want %d", tc.name, n, err, len(gone))
			}
			least = min(least, after.Mallocs-before.Mallocs)
			for _, key := range gone {
				f.insert(key)
			}
		}
		if least > want[tc.name] {
			t.Errorf("%s: a sweep allocates %d times, want at most %d", tc.name, least, want[tc.name])
		}
	}
}
