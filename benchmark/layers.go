package awcbench

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"autowebcache"
	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/cache/l2"
	"autowebcache/internal/datasource"
	"autowebcache/internal/rubis"
	"autowebcache/internal/serverutil"
	"autowebcache/internal/servlet"
	"autowebcache/internal/sqlparser"
	"autowebcache/internal/weave"
)

// LayerUnits names every per-layer metric with its unit. A traced run emits
// all of them on every workload; a layer the workload bypasses reports 0.
var LayerUnits = map[string]string{
	"serverutil.boot_ms":                "ms",
	"serverutil.http_overhead_us":       "us",
	"servlet.pagekey_ns":                "ns",
	"weave.hit_span_us":                 "us",
	"weave.serve_write_us":              "us",
	"weave.miss_self_us":                "us",
	"weave.write_self_us":               "us",
	"weave.not_modified_ratio":          "ratio",
	"weave.coalesced_ratio":             "ratio",
	"weave.flight_aborts_per_kmiss":     "count",
	"cache.lookup_ns":                   "ns",
	"cache.insert_us":                   "us",
	"cache.invalidate_us":               "us",
	"cache.pages_invalidated_per_write": "count",
	"cache.evictions_per_insert":        "count",
	"cache.admission_reject_ratio":      "ratio",
	"cache.bytes_per_entry":             "B",
	"cache.l2.put_us":                   "us",
	"cache.l2.get_us":                   "us",
	"cache.l2.remove_sync_us":           "us",
	"cache.l2.promotion_ratio":          "ratio",
	"cache.l2.journal_syncs_per_write":  "count",
	"cache.l2.file_bytes_per_live_byte": "ratio",
	"analysis.prepare_write_us":         "us",
	"analysis.intersect_ns":             "ns",
	"sqlparser.parameterize_us":         "us",
	"datasource.queries_per_req":        "count",
	"datasource.query_us":               "us",
	"datasource.exec_us":                "us",
	"datasource.time_share":             "ratio",
	"datasource.seed_ms":                "ms",
	"cluster.fetch_us":                  "us",
	"cluster.offer_us":                  "us",
	"cluster.broadcast_us":              "us",
	"cluster.remote_hit_ratio":          "ratio",
	"cluster.offers_per_miss":           "count",
	"cluster.broadcast_failures":        "count",
	"runtime.alloc_bytes_per_req":       "B",
	"runtime.gc_cycles_per_kreq":        "count",
	"trace.overhead_ratio":              "ratio",
}

// RunTrace produces the per-layer metrics of one workload from three
// sources, in this order:
//
//   - scrape: /metrics deltas around a concurrent run against the real
//     server processes — the counters that need concurrency (coalescing,
//     flight aborts) or the real process (allocation, GC, boot);
//   - span and count: the same stack composed in this process through the
//     public constructors, served over loopback HTTP to ONE sequential
//     client for a fixed number of requests, with spans around each
//     layer's public calls. Fixed and sequential, so its counts repeat
//     exactly for a seed;
//   - replay: the inputs that run recorded, fed back to single layers'
//     public functions in tight loops.
func RunTrace(ctx context.Context, env Env, w *Workload, opts RunOpts) (*Result, error) {
	res := &Result{Metrics: make(map[string]Metric)}
	set := func(name string, v float64) {
		unit, ok := LayerUnits[name]
		if !ok {
			panic("awcbench: metric " + name + " is not declared in LayerUnits")
		}
		res.Metrics[name] = Metric{v, unit}
	}
	for name := range LayerUnits {
		set(name, 0)
	}
	if err := traceServers(ctx, env, w, opts, res, set); err != nil {
		return nil, err
	}
	if err := traceInProcess(ctx, env, w, opts, res, set); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// traceServers is the scrape source.
func traceServers(ctx context.Context, env Env, w *Workload, opts RunOpts, res *Result, set func(string, float64)) error {
	dep, gen, err := setUp(ctx, env, w, opts, res)
	if err != nil {
		return err
	}
	defer dep.Stop()
	defer gen.Close()
	before, err := dep.Scrape(ctx)
	if err != nil {
		return err
	}
	// The scrape source gets the larger share of the run's seconds; the
	// in-process segments and the replays are sized in requests.
	limit := opts.Measure
	limit.Duration = limit.Duration * 2 / 5
	load := gen.Run(ctx, limit)
	after, err := dep.Scrape(ctx)
	if err != nil {
		return err
	}
	res.count(load)
	res.count(CheckReadYourWrite(ctx, dep.Targets(), opts.Seed))
	d := after.Sub(before)
	requests := d["awc_requests_total"]
	set("serverutil.boot_ms", dep.BootMS)
	set("weave.coalesced_ratio", ratio(d["awc_coalesced_total"], requests-d["awc_writes_total"]))
	set("weave.flight_aborts_per_kmiss", 1000*ratio(d["awc_flight_aborts_total"], d["awc_misses_total"]))
	set("runtime.alloc_bytes_per_req", ratio(d["go_memstats_total_alloc_bytes_total"], requests))
	set("runtime.gc_cycles_per_kreq", 1000*ratio(d["go_memstats_gc_cycles_total"], requests))
	return ctx.Err()
}

// stack is the workload's deployment composed in this process.
type stack struct {
	*Deployment
	tracer *Tracer
	rec    *recorder
	conn   *tracedConn
	// first is node 0's runtime, the one the replays use.
	first  *autowebcache.Runtime
	l2Opts l2.Options // zero Dir when the workload has no disk tier
	seedMS float64
}

// buildStack composes what cmd/rubis-server composes, from the same flags,
// through the same public constructors, interposing only at public seams.
func buildStack(ctx context.Context, env Env, w *Workload) (_ *stack, err error) {
	dir, err := os.MkdirTemp(env.WorkDir, w.Name+"-inproc-")
	if err != nil {
		return nil, err
	}
	s := &stack{Deployment: &Deployment{}, tracer: NewTracer(), rec: &recorder{}}
	var closers []func() error
	s.stop = func() error {
		var first error
		for i := len(closers) - 1; i >= 0; i-- {
			if err := closers[i](); first == nil {
				first = err
			}
		}
		closers = nil
		if err := os.RemoveAll(dir); first == nil {
			first = err
		}
		return first
	}
	defer func() {
		if err != nil {
			s.stop()
		}
	}()
	if s.Addrs, err = nodeAddrs(w.Nodes); err != nil {
		return nil, err
	}
	scale := rubis.DefaultScale()
	for i := range s.Addrs {
		fs := flag.NewFlagSet("rubis-server", flag.ContinueOnError)
		flags := serverutil.Register(fs, "")
		if err := fs.Parse(w.ServerArgs(i, s.Addrs, dir)); err != nil {
			return nil, err
		}
		cfg, err := flags.Config()
		if err != nil {
			return nil, err
		}
		if s.conn == nil {
			// One connection for every node: the sqlite driver shares one
			// instance per file within a process anyway.
			raw, err := datasource.Open(*flags.DB)
			if err != nil {
				return nil, err
			}
			if c, ok := raw.(datasource.Closer); ok {
				closers = append(closers, c.Close)
			}
			b, ok := raw.(backend)
			if !ok {
				return nil, fmt.Errorf("datasource %q reports no schema or cannot bootstrap", *flags.DB)
			}
			s.conn = &tracedConn{backend: b, t: s.tracer, seen: make(map[string]bool)}
			s.l2Opts = l2.Options{Dir: cfg.PageCache.L2Path, MaxBytes: cfg.PageCache.L2MaxBytes}
		}
		rt, err := autowebcache.NewFromConn(s.conn, cfg)
		if err != nil {
			return nil, err
		}
		closers = append(closers, rt.Close)
		start := time.Now()
		lastDate, err := rubis.Seed(ctx, rt.RawConn(), scale)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			s.first, s.seedMS = rt, float64(time.Since(start))/float64(time.Millisecond)
		}
		handlers := traceHandlers(s.tracer, rubis.New(rt.Conn(), scale, lastDate).Handlers())
		woven, err := rt.Weave(handlers, autowebcache.Rules{Fragments: *flags.Fragments})
		if err != nil {
			return nil, err
		}
		node, err := rt.Cluster(woven, flags.ClusterConfig())
		if err != nil {
			return nil, err
		}
		// Typed nils must not reach the wrappers' interface fields.
		var remote weave.Remote
		var fanout cache.RemoteInvalidator
		if node != nil {
			closers = append(closers, node.Close)
			remote, fanout = node, node
		}
		woven.SetRemote(tracedRemote{remote, s.tracer, s.rec})
		rt.Cache().SetRemote(tracedInvalidator{fanout, s.tracer, s.rec})
		admin := autowebcache.NewAdmin().Watch(rt, woven, node)
		for addr, h := range map[string]http.Handler{
			s.Addrs[i].HTTP:  traceRoot(s.tracer, woven),
			s.Addrs[i].Admin: admin.Handler(),
		} {
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				return nil, err
			}
			srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
			served := make(chan struct{})
			go func() {
				defer close(served)
				srv.Serve(ln) // returns ErrServerClosed at shutdown
			}()
			closers = append(closers, func() error {
				err := srv.Close()
				<-served
				return err
			})
		}
	}
	return s, nil
}

// traceInProcess is the span, count and replay sources.
func traceInProcess(ctx context.Context, env Env, w *Workload, opts RunOpts, res *Result, set func(string, float64)) error {
	s, err := buildStack(ctx, env, w)
	if err != nil {
		return err
	}
	defer s.Stop()
	gen := NewGenerator(w, opts.Seed, s.Targets(), 1)
	defer gen.Close()
	res.count(gen.Run(ctx, Limit{Requests: opts.scaled(w.Warmup)}))
	before, err := s.Scrape(ctx)
	if err != nil {
		return err
	}
	// Four equal segments, untraced-traced-traced-untraced: requests get
	// slower as the bidding mixes grow the database, and this order puts a
	// linear drift equally on both sides of the overhead ratio.
	var wall [2]time.Duration
	var traced []Sample
	for seg := 0; seg < 4; seg++ {
		on := seg == 1 || seg == 2
		s.tracer.Enable(on)
		load := gen.Run(ctx, Limit{Requests: opts.scaled(w.TraceRequests)})
		s.tracer.Enable(false)
		res.count(load)
		if on {
			traced = append(traced, load.Samples...)
			wall[1] += load.Wall
		} else {
			wall[0] += load.Wall
		}
	}
	after, err := s.Scrape(ctx)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	res.count(CheckReadYourWrite(ctx, s.Targets(), opts.Seed))

	set("datasource.seed_ms", s.seedMS)
	set("trace.overhead_ratio", ratio(wall[0].Seconds(), wall[1].Seconds()))
	countMetrics(after.Sub(before), after, set)
	spans := s.tracer.Spans()
	hitSpan := spanMetrics(spans, wall[1], set)
	// Same requests, same run: what the sequential client saw on a hit
	// minus what the woven handler spent on it is net/http, the loopback
	// socket and the client's own parsing.
	hits := splitLatencies(traced).hits
	if p50, _ := Percentile(hits, 50); len(hits) > 0 {
		set("serverutil.http_overhead_us", p50-hitSpan)
	}
	if err := writeJSON(filepath.Join(env.OutDir, "trace-"+w.Name+".json"), struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []Span `json:"spans"`
	}{w.Name, opts.Seed, spans}); err != nil {
		return err
	}
	budget := 100 * time.Millisecond
	if opts.Quick {
		budget /= 10
	}
	return replay(s, w, opts.Seed, budget, set)
}

// countMetrics derives the count ratios from the in-process run's own
// /metrics: d is the delta over the four segments, end the final reading
// (for gauges).
func countMetrics(d, end Counts, set func(string, float64)) {
	writes, misses := d["awc_writes_total"], d["awc_misses_total"]
	reads := d["awc_requests_total"] - writes
	inserts, rejects := d["awc_cache_inserts_total"], d["awc_cache_admission_rejects_total"]
	set("weave.not_modified_ratio", ratio(d["awc_not_modified_total"], reads))
	set("cache.pages_invalidated_per_write", ratio(d["awc_pages_invalidated_total"], writes))
	set("cache.evictions_per_insert", ratio(d["awc_cache_evictions_total"], inserts))
	set("cache.admission_reject_ratio", ratio(rejects, rejects+inserts))
	set("cache.bytes_per_entry", ratio(end["awc_cache_bytes"], end["awc_cache_entries"]))
	set("cache.l2.promotion_ratio", ratio(d["awc_cache_l2_promotions_total"], d["awc_cache_l2_hits_total"]+d["awc_cache_l2_misses_total"]))
	set("cache.l2.journal_syncs_per_write", ratio(d["awc_cache_l2_journal_syncs_total"], writes))
	set("cache.l2.file_bytes_per_live_byte", ratio(end["awc_cache_l2_file_bytes"], end["awc_cache_l2_bytes"]))
	set("cluster.remote_hit_ratio", ratio(d["awc_remote_hits_total"], reads))
	set("cluster.offers_per_miss", ratio(d["awc_cluster_offers_sent_total"], misses))
	set("cluster.broadcast_failures", d["awc_cluster_inv_broadcast_failures_total"])
}

// spanMetrics derives the span metrics and returns the hit span's median.
// wall is how long the traced segments took the client: the base of the
// database's time share, so the share says what a faster database could
// save a sequential user.
func spanMetrics(spans []Span, wall time.Duration, set func(string, float64)) (hitSpanUS float64) {
	hit, miss, write := string(weave.OutcomeHit), string(weave.OutcomeMiss), string(weave.OutcomeWrite)
	self := SelfTimes(spans)
	by := make(map[string][]float64) // microseconds
	var requests, dbCalls int
	var dbNS int64
	for i, sp := range spans {
		d := sp.End - sp.Start
		us := float64(d) / 1e3
		switch sp.Name {
		case spanRequest:
			requests++
			by["request/"+sp.Outcome] = append(by["request/"+sp.Outcome], us)
			by["self/"+sp.Outcome] = append(by["self/"+sp.Outcome], float64(self[i])/1e3)
		case spanQuery, spanExec:
			dbCalls++
			dbNS += d
			by[sp.Name] = append(by[sp.Name], us)
		case spanWrite:
			if spans[sp.Parent].Outcome == hit {
				by[sp.Name] = append(by[sp.Name], us)
			}
		default:
			by[sp.Name] = append(by[sp.Name], us)
		}
	}
	hitSpanUS = Median(by["request/"+hit])
	set("weave.hit_span_us", hitSpanUS)
	set("weave.serve_write_us", Median(by[spanWrite]))
	set("weave.miss_self_us", Median(by["self/"+miss]))
	set("weave.write_self_us", Median(by["self/"+write]))
	set("datasource.queries_per_req", ratio(float64(dbCalls), float64(requests)))
	set("datasource.query_us", Median(by[spanQuery]))
	set("datasource.exec_us", Median(by[spanExec]))
	set("datasource.time_share", ratio(float64(dbNS), float64(wall)))
	set("cluster.fetch_us", Median(by[spanFetch]))
	set("cluster.offer_us", Median(by[spanOffer]))
	set("cluster.broadcast_us", Median(by[spanBroadcast]))
	return hitSpanUS
}

// perOp calls op(0..n-1) in whole passes for about budget and returns the
// mean nanoseconds per call (0 without inputs). The clock is read once per
// pass, not per call.
func perOp(n int, budget time.Duration, op func(i int)) float64 {
	if n == 0 {
		return 0
	}
	calls := 0
	start := time.Now()
	for {
		for i := 0; i < n; i++ {
			op(i)
		}
		calls += n
		if el := time.Since(start); el >= budget {
			return float64(el) / float64(calls)
		}
	}
}

// replayCap bounds the inputs of the replays that change state and
// therefore run a single pass.
const replayCap = 512

// replay feeds the inputs the in-process run recorded back to single
// layers. It runs last: it mutates node 0's cache.
func replay(s *stack, w *Workload, seed int64, budget time.Duration, set func(string, float64)) error {
	c, engine := s.first.Cache(), s.first.Engine()
	pages, captures := s.rec.pages, s.rec.captures

	var reqs []*http.Request
	stream := NewStream(w, seed, 0)
	for i := 0; i < replayCap; i++ {
		r, err := http.NewRequest(http.MethodGet, "http://replay"+stream.Next().Path, nil)
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
	}
	set("servlet.pagekey_ns", perOp(len(reqs), budget, func(i int) { servlet.PageKey(reqs[i]) }))

	var sqls []string
	for sql := range s.conn.seen {
		sqls = append(sqls, sql)
	}
	sort.Strings(sqls)
	var perr error
	set("sqlparser.parameterize_us", perOp(len(sqls), budget, func(i int) {
		if _, _, err := sqlparser.Parameterize(sqls[i]); err != nil {
			perr = err
		}
	})/1e3)
	if perr != nil {
		return fmt.Errorf("replay: parameterize: %w", perr)
	}

	// Analysis: prepare each recorded write, then test prepared writes
	// against recorded read dependencies.
	var aerr error
	set("analysis.prepare_write_us", perOp(len(captures), budget, func(i int) {
		if _, err := engine.PrepareWrite(captures[i]); err != nil {
			aerr = err
		}
	})/1e3)
	var prepared []*analysis.PreparedWrite
	for _, wc := range captures[:min(len(captures), 64)] {
		if pw, err := engine.PrepareWrite(wc); err == nil {
			prepared = append(prepared, pw)
		}
	}
	var deps []analysis.Query
	for _, p := range pages {
		if deps = append(deps, p.deps...); len(deps) >= 64 {
			break
		}
	}
	if len(prepared) > 0 {
		set("analysis.intersect_ns", perOp(len(deps), budget, func(i int) {
			for _, pw := range prepared {
				if _, err := pw.Intersects(deps[i]); err != nil {
					aerr = err
				}
			}
		})/float64(len(prepared)))
	}
	if aerr != nil {
		return fmt.Errorf("replay: analysis: %w", aerr)
	}

	// Cache: lookups of resident keys, re-inserts of recorded pages, then
	// recorded invalidations against the populated cache, restoring what
	// each batch removed so the sweep keeps finding a full table.
	latest := make(map[string]pageRecord, len(pages))
	for _, p := range pages {
		latest[p.key] = p
	}
	distinct := make([]pageRecord, 0, len(latest))
	for _, p := range latest {
		distinct = append(distinct, p)
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i].key < distinct[j].key })
	var warm []string
	for _, p := range distinct {
		if c.Contains(p.key) {
			warm = append(warm, p.key)
		}
	}
	set("cache.lookup_ns", perOp(len(warm), budget, func(i int) { c.Lookup(warm[i]) }))
	insert := func(p pageRecord) { c.TryInsert(p.key, p.body, p.contentType, p.deps, p.ttl) }
	set("cache.insert_us", perOp(len(pages), budget, func(i int) { insert(pages[i]) })/1e3)
	var sweepNS time.Duration
	swept := captures[:min(len(captures), replayCap)]
	for i, wc := range swept {
		start := time.Now()
		_, err := c.InvalidateWriteLocal(wc)
		sweepNS += time.Since(start)
		if err != nil {
			return fmt.Errorf("replay: invalidate: %w", err)
		}
		if i%32 == 31 {
			for _, p := range distinct {
				if !c.Contains(p.key) {
					insert(p)
				}
			}
		}
	}
	set("cache.invalidate_us", ratio(micros(sweepNS), float64(len(swept))))

	if s.l2Opts.Dir == "" {
		return nil
	}
	// Disk tier: a fresh store beside the live one, same budget.
	o := s.l2Opts
	o.Dir += "-replay"
	o.SnapshotInterval = -1
	store, err := l2.Open(o)
	if err != nil {
		return err
	}
	defer store.Close()
	stored := distinct[:min(len(distinct), replayCap)]
	timed := func(op func(p pageRecord) error) (float64, error) {
		start := time.Now()
		for _, p := range stored {
			if err := op(p); err != nil {
				return 0, err
			}
		}
		return ratio(micros(time.Since(start)), float64(len(stored))), nil
	}
	for _, step := range []struct {
		name string
		op   func(p pageRecord) error
	}{
		{"cache.l2.put_us", func(p pageRecord) error {
			_, err := store.Put(p.key, p.body, p.contentType, p.deps, time.Time{})
			return err
		}},
		{"cache.l2.get_us", func(p pageRecord) error {
			if _, ok := store.Get(p.key); !ok {
				return errors.New("a record just put is gone")
			}
			return nil
		}},
		{"cache.l2.remove_sync_us", func(p pageRecord) error {
			store.Remove(p.key)
			return store.Sync()
		}},
	} {
		us, err := timed(step.op)
		if err != nil {
			return fmt.Errorf("replay: %s: %w", step.name, err)
		}
		set(step.name, us)
	}
	return nil
}
