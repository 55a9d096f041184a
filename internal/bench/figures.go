package bench

import (
	"fmt"
	"time"

	"autowebcache/internal/analysis"
)

// ms formats a duration in milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6)
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// Fig4 reproduces the query-analysis cache statistics (Fig. 4): the number
// of distinct templates and template pairs stabilises after a short warm-up,
// after which nearly all analyses are served from the pair cache.
func Fig4(p Params) (*Table, error) {
	t := &Table{
		ID:    "fig4",
		Title: "Query Analysis Cache Statistics for RUBiS and TPC-W",
		Columns: []string{"App", "Requests", "Templates", "TemplatePairs",
			"PairCacheHits", "PairCacheMisses", "PairHitRate"},
		Notes: []string{
			"paper: 'the query analysis cache stabilizes very quickly' — templates and pairs plateau while the hit rate climbs towards 100%",
		},
	}
	type appCase struct {
		name  string
		build func() (*deployment, error)
	}
	cases := []appCase{
		{"RUBiS", func() (*deployment, error) { return newRubis(p, SystemConfig{Cached: true}) }},
		{"TPC-W", func() (*deployment, error) { return newTpcw(p, SystemConfig{Cached: true}) }},
	}
	checkpoints := []int{1, 2, 4, 8}
	for _, c := range cases {
		d, err := c.build()
		if err != nil {
			return nil, err
		}
		requests := 0
		batch := p.Measure / 4
		if batch == 0 {
			batch = 100
		}
		for _, k := range checkpoints {
			target := batch * k
			step := target - requests
			if step <= 0 {
				continue
			}
			q := p
			q.Warmup = 0
			q.Measure = step
			d.run(q, 8)
			requests = target
			st := d.eng.Stats()
			total := st.PairCacheHits + st.PairCacheMisses
			rate := 0.0
			if total > 0 {
				rate = float64(st.PairCacheHits) / float64(total)
			}
			t.AddRow(c.name, requests, st.Templates, st.PairCacheSize,
				st.PairCacheHits, st.PairCacheMisses, pct(rate))
		}
	}
	return t, nil
}

// responseCurve runs a client sweep over one or more configurations and
// fills a table with mean response times.
func responseCurve(p Params, id, title string, clients []int,
	build func(SystemConfig) (*deployment, error), configs []SystemConfig, notes []string) (*Table, error) {

	cols := []string{"Clients"}
	for _, cfg := range configs {
		cols = append(cols, cfg.label()+" (ms)")
	}
	cols = append(cols, "Improvement", "HitRate")
	t := &Table{ID: id, Title: title, Columns: cols, Notes: notes}

	for _, n := range clients {
		row := []any{n}
		var base, best time.Duration
		var hitRate float64
		for i, cfg := range configs {
			d, err := build(cfg)
			if err != nil {
				return nil, err
			}
			res := d.run(p, n)
			mean := res.Totals.MeanResponse()
			row = append(row, ms(mean))
			if i == 0 {
				base = mean
			}
			best = mean
			if cfg.Cached && !cfg.ForceMiss {
				hitRate = res.Totals.HitRate()
			}
		}
		improvement := 0.0
		if base > 0 {
			improvement = 1 - float64(best)/float64(base)
		}
		row = append(row, pct(improvement), pct(hitRate))
		t.AddRow(row...)
	}
	return t, nil
}

// Fig13 reproduces the RUBiS response-time curve (Fig. 13): NoCache vs
// AutoWebCache under the bidding mix.
func Fig13(p Params) (*Table, error) {
	return responseCurve(p, "fig13", "Response Time for RUBiS - Bidding Mix",
		p.RubisClients,
		func(cfg SystemConfig) (*deployment, error) { return newRubis(p, cfg) },
		[]SystemConfig{{Cached: false}, {Cached: true}},
		[]string{
			"paper: AutoWebCache improves RUBiS response time by up to 64% at a 54% hit rate",
		})
}

// Fig14 reproduces the TPC-W response-time curve (Fig. 14), including the
// forced-miss configuration showing negligible lookup overhead.
func Fig14(p Params) (*Table, error) {
	return responseCurve(p, "fig14", "Response Time for TPC-W - Shopping Mix",
		p.TpcwClients,
		func(cfg SystemConfig) (*deployment, error) { return newTpcw(p, cfg) },
		[]SystemConfig{{Cached: false}, {Cached: true, ForceMiss: true}, {Cached: true}},
		[]string{
			"paper: response time reduced by up to 98% at a 43% hit rate (log-scale figure)",
			"ForcedMiss vs NoCache isolates the lookup overhead; the paper reports it indistinguishable at millisecond scale",
			"improvement compares the last configuration (AutoWebCache) against the first (NoCache)",
		})
}

// Fig15 reproduces the application-semantics experiment (Fig. 15): TPC-W
// with the BestSellers 30-second dirty-read window.
func Fig15(p Params) (*Table, error) {
	return responseCurve(p, "fig15", "Cache Improvement in TPC-W based on Application Semantics",
		p.TpcwClients,
		func(cfg SystemConfig) (*deployment, error) { return newTpcw(p, cfg) },
		[]SystemConfig{
			{Cached: false},
			{Cached: true},
			{Cached: true, BestSellerWindow: 30 * time.Second},
		},
		[]string{
			"paper: marking BestSellers cacheable for its 30 s window (TPC-W §3.1.4.1/§6.3.3.1) beats plain AutoWebCache",
		})
}

// perRequestBreakdown runs one cached deployment at a fixed client count and
// reports per-interaction outcome percentages (Figs. 16 and 17).
func perRequestBreakdown(p Params, id, title string, clients int,
	build func(SystemConfig) (*deployment, error), cfg SystemConfig, notes []string) (*Table, error) {

	d, err := build(cfg)
	if err != nil {
		return nil, err
	}
	res := d.run(p, clients)
	total := float64(res.Totals.Requests)
	if total == 0 {
		return nil, fmt.Errorf("bench: %s produced no requests", id)
	}
	t := &Table{
		ID:    id,
		Title: title,
		Columns: []string{"RequestType", "%OfRequests", "Hits%", "SemanticHits%",
			"Misses%", "Uncacheable%", "HitRate"},
		Notes: notes,
	}
	for _, is := range res.PerInteraction {
		if is.Writes > 0 {
			continue // the paper's figures show read-only interactions
		}
		t.AddRow(is.Name,
			pct(float64(is.Requests)/total),
			pct(float64(is.Hits)/total),
			pct(float64(is.SemanticHits)/total),
			pct(float64(is.Misses)/total),
			pct(float64(is.Uncacheable)/total),
			pct(is.HitRate()),
		)
	}
	return t, nil
}

// Fig16 reproduces the RUBiS per-interaction hit/miss breakdown (Fig. 16).
func Fig16(p Params) (*Table, error) {
	clients := p.RubisClients[len(p.RubisClients)-1]
	return perRequestBreakdown(p, "fig16",
		fmt.Sprintf("Relative Benefits for different Requests in RUBiS (%d clients)", clients),
		clients,
		func(cfg SystemConfig) (*deployment, error) { return newRubis(p, cfg) },
		SystemConfig{Cached: true},
		[]string{
			"paper: BrowseCategories/BrowseRegions ~100% hit rate; BuyNow and PutComment lowest (cold misses); ViewItem/ViewBids misses are mostly invalidations",
		})
}

// Fig17 reproduces the TPC-W per-interaction breakdown (Fig. 17), including
// semantic hits for BestSellers and the uncacheable Home/SearchRequest.
func Fig17(p Params) (*Table, error) {
	clients := p.TpcwClients[len(p.TpcwClients)-1]
	return perRequestBreakdown(p, "fig17",
		fmt.Sprintf("Relative Benefits for different Requests in TPC-W (%d clients)", clients),
		clients,
		func(cfg SystemConfig) (*deployment, error) { return newTpcw(p, cfg) },
		SystemConfig{Cached: true, BestSellerWindow: 30 * time.Second},
		[]string{
			"paper: HomeInteraction and SearchRequest are uncacheable (random ad banners); most BestSellers hits come from the 30 s semantic window",
		})
}

// responseBreakdown reports per-interaction mean response time and the
// extra time a miss costs (Figs. 18 and 19).
func responseBreakdown(p Params, id, title string, clients int,
	build func(SystemConfig) (*deployment, error), cfg SystemConfig, notes []string) (*Table, error) {

	d, err := build(cfg)
	if err != nil {
		return nil, err
	}
	res := d.run(p, clients)
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"RequestType", "AvgResponse(ms)", "ExtraTimeForMiss(ms)", "HitRate"},
		Notes:   notes,
	}
	for _, is := range res.PerInteraction {
		if is.Writes > 0 {
			continue
		}
		t.AddRow(is.Name, ms(is.MeanResponse()), ms(is.MissPenalty()), pct(is.HitRate()))
	}
	return t, nil
}

// Fig18 reproduces the RUBiS response-time breakdown (Fig. 18).
func Fig18(p Params) (*Table, error) {
	clients := p.RubisClients[len(p.RubisClients)-1]
	return responseBreakdown(p, "fig18",
		fmt.Sprintf("Breakdown of different Requests in RUBiS w.r.t. Response Time (%d clients)", clients),
		clients,
		func(cfg SystemConfig) (*deployment, error) { return newRubis(p, cfg) },
		SystemConfig{Cached: true},
		[]string{
			"paper: AboutMe has a high miss penalty compensated by a high hit rate",
		})
}

// Fig19 reproduces the TPC-W response-time breakdown (Fig. 19).
func Fig19(p Params) (*Table, error) {
	clients := p.TpcwClients[len(p.TpcwClients)-1]
	return responseBreakdown(p, "fig19",
		fmt.Sprintf("Breakdown of different Requests in TPC-W w.r.t. Response Time (%d clients)", clients),
		clients,
		func(cfg SystemConfig) (*deployment, error) { return newTpcw(p, cfg) },
		SystemConfig{Cached: true, BestSellerWindow: 30 * time.Second},
		[]string{
			"paper: BestSellers, ExecuteSearch and NewProducts have high miss penalties compensated by hits; Home/SearchRequest are cheap, so marking them uncacheable costs little",
		})
}

// AblationStrategies compares the three invalidation strategies (§3.2; the
// paper reports only AC-extraQuery, citing [20] for the comparison).
func AblationStrategies(p Params) (*Table, error) {
	t := &Table{
		ID:    "tblA",
		Title: "Ablation: cache invalidation strategies (RUBiS, bidding mix)",
		Columns: []string{"Strategy", "HitRate", "MeanResponse(ms)",
			"PagesInvalidated", "InvalidationsPerWrite", "ExtraQueries"},
		Notes: []string{
			"precision increases down the table: fewer false invalidations, higher hit rate",
		},
	}
	clients := p.RubisClients[len(p.RubisClients)-1]
	for _, s := range []analysis.Strategy{
		analysis.StrategyColumnOnly, analysis.StrategyWhereMatch, analysis.StrategyExtraQuery,
	} {
		d, err := newRubis(p, SystemConfig{Cached: true, Strategy: s})
		if err != nil {
			return nil, err
		}
		res := d.run(p, clients)
		cst := d.cache.Snapshot()
		est := d.eng.Stats()
		perWrite := 0.0
		if cst.WritesSeen > 0 {
			perWrite = float64(cst.Invalidations) / float64(cst.WritesSeen)
		}
		t.AddRow(s.String(), pct(res.Totals.HitRate()), ms(res.Totals.MeanResponse()),
			cst.Invalidations, fmt.Sprintf("%.2f", perWrite), est.ExtraQueries)
	}
	return t, nil
}

// AblationReplacement sweeps the byte budget across the eviction policies a
// server deploys — segmented LRU, with and without TinyLFU admission (the
// paper's §9 future work: "analyze the effect of varying cache size on the
// hit rates ... and investigate different cache replacement strategies").
func AblationReplacement(p Params) (*Table, error) {
	t := &Table{
		ID:      "tblB",
		Title:   "Ablation: segmented LRU with and without TinyLFU admission under a byte budget (RUBiS, bidding mix)",
		Columns: []string{"Capacity(bytes)", "Policy", "HitRate", "Evictions", "AdmissionRejects"},
	}
	clients := p.RubisClients[len(p.RubisClients)-1]
	for _, capBytes := range []int64{16 << 10, 64 << 10, 256 << 10} {
		for _, admission := range []bool{false, true} {
			d, err := newRubis(p, SystemConfig{Cached: true, MaxBytes: capBytes, Admission: admission})
			if err != nil {
				return nil, err
			}
			res := d.run(p, clients)
			cst := d.cache.Snapshot()
			policy := "SLRU"
			if admission {
				policy = "SLRU+TinyLFU"
			}
			t.AddRow(capBytes, policy, pct(res.Totals.HitRate()), cst.Evictions, cst.AdmissionRejects)
		}
	}
	return t, nil
}

// All runs every experiment and returns the tables in paper order. root is
// the repository root for the Fig. 20 code-size analysis.
func All(p Params, root string) ([]*Table, error) {
	type job struct {
		name string
		fn   func() (*Table, error)
	}
	jobs := []job{
		{"fig4", func() (*Table, error) { return Fig4(p) }},
		{"fig13", func() (*Table, error) { return Fig13(p) }},
		{"fig14", func() (*Table, error) { return Fig14(p) }},
		{"fig15", func() (*Table, error) { return Fig15(p) }},
		{"fig16", func() (*Table, error) { return Fig16(p) }},
		{"fig17", func() (*Table, error) { return Fig17(p) }},
		{"fig18", func() (*Table, error) { return Fig18(p) }},
		{"fig19", func() (*Table, error) { return Fig19(p) }},
		{"fig20", func() (*Table, error) { return Fig20(root) }},
		{"tblA", func() (*Table, error) { return AblationStrategies(p) }},
		{"tblB", func() (*Table, error) { return AblationReplacement(p) }},
	}
	var out []*Table
	for _, j := range jobs {
		tbl, err := j.fn()
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", j.name, err)
		}
		out = append(out, tbl)
	}
	return out, nil
}
