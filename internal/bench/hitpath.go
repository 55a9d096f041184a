package bench

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/memdb"
	"autowebcache/internal/servlet"
	"autowebcache/internal/weave"
)

// HitPathRecord is one machine-readable hit-path benchmark result, written
// to BENCH_N.json so the perf trajectory across PRs is recorded, not
// asserted in prose.
type HitPathRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Ops         int     `json:"ops"`
	Note        string  `json:"note,omitempty"`
}

func record(name string, r testing.BenchmarkResult, note string) HitPathRecord {
	return HitPathRecord{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Ops:         r.N,
		Note:        note,
	}
}

// newHitPathCache builds a page cache pre-loaded with nKeys 1 KiB pages.
func newHitPathCache(nKeys int) (*cache.Cache, []string, error) {
	return newHitPathCacheOpts(nKeys, cache.Options{Shards: 8})
}

// newHitPathCacheOpts is newHitPathCache with explicit cache options (the
// governed variant sets MaxBytes + Admission). Pages are warmed with one
// hit each so segmented eviction's one-time probation->protected promotion
// is out of the measured path.
func newHitPathCacheOpts(nKeys int, opts cache.Options) (*cache.Cache, []string, error) {
	eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		return nil, nil, err
	}
	opts.Engine = eng
	c, err := cache.New(opts)
	if err != nil {
		return nil, nil, err
	}
	body := make([]byte, 1024)
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("/page?x=%d", i)
		c.Insert(keys[i], body, "text/html", []analysis.Query{
			{SQL: "SELECT a FROM t WHERE b = ?", Args: []memdb.Value{int64(i)}},
		}, 0)
		c.Lookup(keys[i])
	}
	return c, keys, nil
}

// coalescingWoven builds a one-handler woven app whose handler counts its
// executions, for the coalesced-miss experiment.
func coalescingWoven(executions *atomic.Int64) (*weave.Woven, error) {
	eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		return nil, err
	}
	c, err := cache.New(cache.Options{Engine: eng, Shards: 8})
	if err != nil {
		return nil, err
	}
	body := make([]byte, 1024)
	fn := func(rw http.ResponseWriter, r *http.Request) {
		executions.Add(1)
		rw.Header().Set("Content-Type", "text/html")
		rw.WriteHeader(http.StatusOK)
		_, _ = rw.Write(body)
	}
	return weave.New([]servlet.HandlerInfo{{Name: "Cold", Path: "/cold", Fn: fn}}, c, weave.Rules{})
}

// discardWriter is a minimal allocation-free http.ResponseWriter.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// fragmentWoven builds a woven app with one fragmented handler: three 1 KiB
// fragments plus a small personalised hole — the warm fragment-assembly
// path (all fragments hit, only the hole runs).
func fragmentWoven() (*weave.Woven, error) {
	eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		return nil, err
	}
	c, err := cache.New(cache.Options{Engine: eng, Shards: 8})
	if err != nil {
		return nil, err
	}
	chunk := make([]byte, 1024)
	for i := range chunk {
		chunk[i] = 'x'
	}
	frag := func(id string) servlet.Segment {
		return servlet.Segment{ID: id, Vary: []string{"x"}, Gen: func(rw http.ResponseWriter, r *http.Request) {
			_, _ = rw.Write(chunk)
		}}
	}
	hole := servlet.Segment{Gen: func(rw http.ResponseWriter, r *http.Request) {
		_, _ = rw.Write([]byte("<p>hello, you</p>"))
	}}
	segs := []servlet.Segment{frag("a"), hole, frag("b"), frag("c")}
	h := servlet.HandlerInfo{Name: "Frag", Path: "/frag", Fragments: segs}
	return weave.New([]servlet.HandlerInfo{h}, c, weave.Rules{Fragments: true})
}

// httpWoven builds a one-handler woven app with the serve-path variants on
// (gzip + ETags) and a compressible 4 KiB page, for the full-HTTP hit
// benchmarks. It returns the woven handler and the warm page's ETag.
func httpWoven() (*weave.Woven, string, error) {
	eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		return nil, "", err
	}
	c, err := cache.New(cache.Options{Engine: eng, Shards: 8, Gzip: true, ETags: true})
	if err != nil {
		return nil, "", err
	}
	row := []byte("<tr><td>item</td><td>9901</td><td>available</td></tr>\n")
	body := make([]byte, 0, 4096)
	for len(body) < 4096 {
		body = append(body, row...)
	}
	fn := func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/html")
		rw.WriteHeader(http.StatusOK)
		_, _ = rw.Write(body)
	}
	w, err := weave.New([]servlet.HandlerInfo{{Name: "Http", Path: "/http", Fn: fn}}, c, weave.Rules{})
	if err != nil {
		return nil, "", err
	}
	rec := httptest.NewRecorder()
	w.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/http", nil))
	etag := rec.Header().Get("ETag")
	if etag == "" {
		return nil, "", fmt.Errorf("warm response carries no ETag")
	}
	return w, etag, nil
}

// HitPathRecords measures the cache hot paths the zero-copy rework targets
// and returns them as machine-readable records:
//
//   - page-hit: warm page-cache Lookup (the zero-copy contract: 0 allocs/op);
//   - page-miss-insert: Lookup miss followed by a 1 KiB Insert (the
//     once-per-page copy);
//   - coalesced-miss: 8 concurrent requests on one cold page key through
//     the weave, per-request cost; the handler runs once per round;
//   - mixed-parallel: the read-dominated page-cache mix (lookups with
//     periodic re-inserts and write invalidations);
//   - remote-down-peer: the cluster fetch fallback with the key's owner
//     dead and the circuit breaker open (the fail-fast contract);
func HitPathRecords() ([]HitPathRecord, error) {
	var out []HitPathRecord

	// page-hit.
	c, keys, err := newHitPathCache(512)
	if err != nil {
		return nil, err
	}
	mask := len(keys) - 1
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for n := 0; n < b.N; n++ {
			if _, ok := c.Lookup(keys[i&mask]); !ok {
				b.Fatal("unexpected miss")
			}
			i += 7
		}
	})
	out = append(out, record("page-hit", r, "warm Lookup, 1 KiB body, zero-copy view"))

	// page-hit-governed: the same warm lookup with byte governance and the
	// TinyLFU admission filter active — the sketch touch and segment
	// maintenance must keep the hit path at 0 allocs/op.
	cg, gkeys, err := newHitPathCacheOpts(512, cache.Options{
		Shards: 8, MaxBytes: 16 << 20, Admission: true,
	})
	if err != nil {
		return nil, err
	}
	gmask := len(gkeys) - 1
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for n := 0; n < b.N; n++ {
			if _, ok := cg.Lookup(gkeys[i&gmask]); !ok {
				b.Fatal("unexpected miss")
			}
			i += 7
		}
	})
	out = append(out, record("page-hit-governed", r, "warm Lookup with MaxBytes budget + TinyLFU admission"))

	// page-hit-instrumented: the governed hit plus the full telemetry
	// accounting a served request pays (outcome counters, byte counters,
	// per-outcome latency histogram) — instrumentation must keep the hit
	// path at 0 allocs/op.
	stats := weave.NewStats()
	stats.RecordServed("Bench", weave.OutcomeHit, time.Microsecond, 0, 1024, 1024)
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for n := 0; n < b.N; n++ {
			if _, ok := cg.Lookup(gkeys[i&gmask]); !ok {
				b.Fatal("unexpected miss")
			}
			stats.RecordServed("Bench", weave.OutcomeHit, time.Microsecond, 0, 1024, 1024)
			i += 7
		}
	})
	out = append(out, record("page-hit-instrumented", r, "governed hit + outcome counters, byte counters and latency histogram"))

	// page-miss-insert.
	c2, _, err := newHitPathCache(0)
	if err != nil {
		return nil, err
	}
	body := make([]byte, 1024)
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			key := fmt.Sprintf("/page?x=%d", n&1023)
			if _, ok := c2.Lookup(key); !ok {
				c2.Insert(key, body, "text/html", []analysis.Query{
					{SQL: "SELECT a FROM t WHERE b = ?", Args: []memdb.Value{int64(n & 1023)}},
				}, 0)
				c2.InvalidateKey(key) // keep every lookup a miss
			}
		}
	})
	out = append(out, record("page-miss-insert", r, "cold Lookup + 1 KiB Insert + removal"))

	// coalesced-miss: per round, 8 concurrent requests on one cold key.
	const herd = 8
	var executions atomic.Int64
	w, err := coalescingWoven(&executions)
	if err != nil {
		return nil, err
	}
	var rounds int64
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			w.Cache().Flush()
			rounds++
			var wg sync.WaitGroup
			for g := 0; g < herd; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					dw := &discardWriter{h: make(http.Header)}
					w.ServeHTTP(dw, httptest.NewRequest(http.MethodGet, "/cold", nil))
				}()
			}
			wg.Wait()
		}
	})
	execPerRound := float64(executions.Load()) / float64(rounds)
	rec := record("coalesced-miss", r, "")
	// Report per-request figures: each round serves `herd` requests.
	rec.NsPerOp /= herd
	rec.AllocsPerOp /= herd
	rec.BytesPerOp /= herd
	rec.Note = fmt.Sprintf("%d concurrent requests per cold key; handler ran %.2fx per round (1.0 = perfect coalescing)", herd, execPerRound)
	out = append(out, rec)

	// fragment-assembly: a warm fragmented page — three 1 KiB fragment hits
	// stitched around a regenerated hole, per-request cost through the
	// weave.
	fw, err := fragmentWoven()
	if err != nil {
		return nil, err
	}
	{
		// Warm the three fragments (and the flight paths) once.
		dw := &discardWriter{h: make(http.Header)}
		fw.ServeHTTP(dw, httptest.NewRequest(http.MethodGet, "/frag?x=1", nil))
	}
	fragReq := httptest.NewRequest(http.MethodGet, "/frag?x=1", nil)
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		// The header map is deliberately NOT cleared between iterations:
		// SetHeader reuses populated value slices, so this measures the
		// steady-state keep-alive serve, matching the other warm records.
		dw := &discardWriter{h: make(http.Header)}
		fw.ServeHTTP(dw, fragReq)
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			fw.ServeHTTP(dw, fragReq)
		}
	})
	out = append(out, record("fragment-assembly", r, "warm page of 3x1 KiB fragment hits + 1 regenerated hole, vectored write"))

	// mixed-parallel.
	c3, keys3, err := newHitPathCache(512)
	if err != nil {
		return nil, err
	}
	mask3 := len(keys3) - 1
	body3 := make([]byte, 1024)
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				i++
				k := (i * 7) & mask3
				switch {
				case i%32 == 0:
					c3.Insert(keys3[k], body3, "text/html", []analysis.Query{
						{SQL: "SELECT a FROM t WHERE b = ?", Args: []memdb.Value{int64(k)}},
					}, 0)
				case i%64 == 1:
					wcap := analysis.WriteCapture{Query: analysis.Query{
						SQL: "UPDATE t SET a = ? WHERE b = ?", Args: []memdb.Value{int64(1), int64(k)},
					}}
					if _, err := c3.InvalidateWrite(wcap); err != nil {
						b.Fatal(err)
					}
				default:
					c3.Lookup(keys3[k])
				}
			}
		})
	})
	out = append(out, record("mixed-parallel", r, "read-dominated mix: 62/64 lookups, 1/32 re-inserts, 1/64 invalidating writes"))

	// remote-down-peer: the breaker-open fetch fallback — a dead peer must
	// cost the read path ~0, not a dial or a CallTimeout per request.
	rdp, err := RemoteDownPeerRecord()
	if err != nil {
		return nil, err
	}
	out = append(out, rdp)

	// http-hit-*: the full HTTP hit — routing, epoch-guarded lookup,
	// negotiation, header writes, stats — not just the cache probe. The
	// woven fixture has gzip variants and ETags on.
	hw, etag, err := httpWoven()
	if err != nil {
		return nil, err
	}
	httpBench := func(req *http.Request) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			dw := &discardWriter{h: make(http.Header)}
			for n := 0; n < b.N; n++ {
				hw.ServeHTTP(dw, req)
			}
		})
	}
	idReq := httptest.NewRequest(http.MethodGet, "/http", nil)
	out = append(out, record("http-hit-identity", httpBench(idReq),
		"full ServeHTTP warm hit, 4 KiB identity body, ETag attached"))

	gzReq := httptest.NewRequest(http.MethodGet, "/http", nil)
	gzReq.Header.Set("Accept-Encoding", "gzip")
	out = append(out, record("http-hit-gzip", httpBench(gzReq),
		"full ServeHTTP warm hit serving the once-compressed gzip variant"))

	inmReq := httptest.NewRequest(http.MethodGet, "/http", nil)
	inmReq.Header.Set("If-None-Match", etag)
	out = append(out, record("http-304", httpBench(inmReq),
		"If-None-Match revalidation answered 304, zero body bytes"))

	// page-hit-l2: the warm L1 hit with a disk tier attached. The store is
	// only probed on the miss path, so attachment must leave the hit path at
	// 0 allocs/op — the same contract page-hit records without a tier.
	l2HitRec, err := l2HitRecord()
	if err != nil {
		return nil, err
	}
	out = append(out, l2HitRec)

	// l2-promote-hit: L1 misses served from the disk tier under a byte
	// budget that keeps most of the working set disk-resident — each lookup
	// pays the store pread + promotion, and the promotion's eviction victim
	// demotes back. The steady-state cost of an SSD-sized working set.
	promRec, err := l2PromoteRecord()
	if err != nil {
		return nil, err
	}
	out = append(out, promRec)

	// warm-restart: one full boot of a 512-entry disk tier — snapshot +
	// journal replay into the in-memory index — plus the clean close that
	// makes the next boot equally warm.
	restartRec, err := warmRestartRecord()
	if err != nil {
		return nil, err
	}
	out = append(out, restartRec)

	return out, nil
}

// WriteHitPathJSON runs the hit-path benchmarks and writes the records as
// indented JSON to path (the BENCH_N.json convention).
func WriteHitPathJSON(path string) ([]HitPathRecord, error) {
	recs, err := HitPathRecords()
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return nil, err
	}
	return recs, os.WriteFile(path, append(data, '\n'), 0o644)
}

// HitPath renders the hit-path records as an experiment table.
func HitPath(Params) (*Table, error) {
	recs, err := HitPathRecords()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "tblH",
		Title:   "Zero-Copy Hit Path: ns/op and allocs/op",
		Columns: []string{"Path", "ns/op", "allocs/op", "B/op", "Note"},
		Notes: []string{
			"page-hit hands out the stored immutable body by reference: 0 allocs/op",
			"coalesced-miss figures are per request; the handler runs once per 8-request herd",
		},
	}
	for _, r := range recs {
		t.AddRow(r.Name, fmt.Sprintf("%.0f", r.NsPerOp), r.AllocsPerOp, r.BytesPerOp, r.Note)
	}
	return t, nil
}
