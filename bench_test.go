package autowebcache_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"autowebcache"
	"autowebcache/internal/analysis"
	"autowebcache/internal/bench"
	"autowebcache/internal/cache"
	"autowebcache/internal/memdb"
	"autowebcache/internal/sqlparser"
)

// Experiment benchmarks: one per paper table/figure, each regenerating the
// experiment at the Fast effort. Run `cmd/experiments` for the full-effort
// tables recorded in EXPERIMENTS.md.

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
