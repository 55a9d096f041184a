package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"autowebcache/internal/weave"
)

// tiny returns parameters small enough for unit tests.
func tiny(t *testing.T) Params {
	t.Helper()
	p := Fast()
	p.RubisClients = []int{8}
	p.TpcwClients = []int{8}
	p.Warmup = 300
	p.Measure = 800
	// Realistic database service times: at near-zero query cost the cache's
	// own bookkeeping would be comparable to page generation and the
	// comparison meaningless.
	p.ReadLat = 60 * time.Microsecond
	p.WriteLat = 40 * time.Microsecond
	p.RowCost = 2 * time.Microsecond
	return p
}

func parseMs(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", cell, err)
	}
	return v
}

func TestFig4Stabilises(t *testing.T) {
	tbl, err := Fig4(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 4 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// Template count must be non-decreasing and plateau per app; the last
	// checkpoint's pair hit rate must dominate its first.
	var apps = map[string][][]string{}
	for _, r := range tbl.Rows {
		apps[r[0]] = append(apps[r[0]], r)
	}
	for app, rows := range apps {
		first := rows[0]
		last := rows[len(rows)-1]
		ft, _ := strconv.Atoi(first[2])
		lt, _ := strconv.Atoi(last[2])
		if lt < ft {
			t.Errorf("%s: template count decreased %d -> %d", app, ft, lt)
		}
		fh := strings.TrimSuffix(first[6], "%")
		lh := strings.TrimSuffix(last[6], "%")
		fhv, _ := strconv.ParseFloat(fh, 64)
		lhv, _ := strconv.ParseFloat(lh, 64)
		if lhv < fhv {
			t.Errorf("%s: pair hit rate fell %s -> %s", app, first[6], last[6])
		}
		if lhv < 50 {
			t.Errorf("%s: pair cache did not stabilise (final hit rate %s)", app, last[6])
		}
	}
}

// TestFig13CacheWins asserts the figure's claim deterministically: the
// cached deployment must absorb a substantial share of the database load
// the uncached one pays, measured in executed queries rather than
// wall-clock response time. (The earlier latency comparison flaked under
// the race detector on loaded single-core runners, where scheduling noise
// overwhelmed the simulated service times.) One sequential client issues
// the fixed request volume, so which request misses, and which write
// removes which page before it is read again, is the same on every run:
// with concurrent clients the interleaving moved the counts.
func TestFig13CacheWins(t *testing.T) {
	p := tiny(t)
	const clients = 1
	dbQueries := func(cfg SystemConfig) uint64 {
		d, err := newRubis(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := d.run(p, clients)
		if res.Totals.Requests == 0 {
			t.Fatal("no requests measured")
		}
		if cfg.Cached && res.Totals.HitRate() <= 0 {
			t.Fatalf("cached deployment recorded no hits: %+v", res.Totals)
		}
		return d.db.Stats().Queries
	}
	noCache := dbQueries(SystemConfig{Cached: false})
	cached := dbQueries(SystemConfig{Cached: true})
	// The paper reports a ~54% hit rate on the bidding mix; demand at
	// minimum that caching cuts database query volume by a quarter.
	if cached >= noCache-noCache/4 {
		t.Errorf("caching saved too little db load: %d queries cached vs %d uncached", cached, noCache)
	}
	t.Logf("%d queries cached vs %d uncached", cached, noCache)
	// The figure itself must still render.
	tbl, err := Fig13(p)
	renders(t, tbl, err, 2)
}

// tpcwLoad runs one TPC-W deployment for the fixed request volume of p and
// returns the database queries it executed and its outcome totals — the
// scheduling-independent quantities the Fig. 14/15 claims are judged on
// (timing is awcbench's and the micro gate's to judge, never go test's).
// As in TestFig13CacheWins, one sequential client issues the volume, so the
// counts are the same on every run.
func tpcwLoad(t *testing.T, p Params, cfg SystemConfig) (uint64, weave.InteractionStats) {
	t.Helper()
	d, err := newTpcw(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := d.run(p, 1)
	if res.Totals.Requests == 0 {
		t.Fatal("no requests measured")
	}
	return d.db.Stats().Queries, res.Totals
}

// renders checks that a response-time figure still renders and that its
// latency cells (columns 1..n) parse.
func renders(t *testing.T, tbl *Table, err error, latencyCols int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("empty %s table", tbl.ID)
	}
	for _, row := range tbl.Rows {
		for _, cell := range row[1 : 1+latencyCols] {
			parseMs(t, cell)
		}
	}
}

// TestFig14CacheWins asserts the figure's two claims as counts: the cached
// TPC-W deployment issues materially fewer database queries than NoCache,
// and the forced-miss configuration (which isolates the lookup overhead)
// saves none — every page is still generated.
func TestFig14CacheWins(t *testing.T) {
	p := tiny(t)
	noCache, _ := tpcwLoad(t, p, SystemConfig{Cached: false})
	forced, forcedTotals := tpcwLoad(t, p, SystemConfig{Cached: true, ForceMiss: true})
	cached, cachedTotals := tpcwLoad(t, p, SystemConfig{Cached: true})
	if cachedTotals.Hits == 0 {
		t.Fatalf("cached deployment recorded no hits: %+v", cachedTotals)
	}
	// The paper reports a 43% hit rate on the shopping mix; demand at
	// minimum that caching cuts database query volume by a tenth.
	if cached >= noCache-noCache/10 {
		t.Errorf("caching saved too little db load: %d queries cached vs %d uncached", cached, noCache)
	}
	if forcedTotals.Hits != 0 || forced < noCache {
		t.Errorf("forced-miss served from the cache: %d hits, %d queries vs %d uncached",
			forcedTotals.Hits, forced, noCache)
	}
	t.Logf("%d queries uncached, %d forced-miss, %d cached with %d hits", noCache, forced, cached, cachedTotals.Hits)
	tbl, err := Fig14(p)
	if err == nil && len(tbl.Columns) != 6 {
		t.Fatalf("columns: %v", tbl.Columns)
	}
	renders(t, tbl, err, 3)
}

// TestFig15SemanticsHelps asserts the application-semantics claim as counts:
// the BestSellers window produces semantic hits where plain AutoWebCache
// produces none, and does not raise database query volume.
func TestFig15SemanticsHelps(t *testing.T) {
	p := tiny(t)
	plain, plainTotals := tpcwLoad(t, p, SystemConfig{Cached: true})
	sem, semTotals := tpcwLoad(t, p, SystemConfig{Cached: true, BestSellerWindow: 30 * time.Second})
	if plainTotals.SemanticHits != 0 {
		t.Errorf("plain AutoWebCache recorded %d semantic hits", plainTotals.SemanticHits)
	}
	if semTotals.SemanticHits == 0 {
		t.Errorf("the BestSellers window produced no semantic hits: %+v", semTotals)
	}
	// With one sequential client both counts are the same on every run, so
	// no interleaving noise is left for the 5% to cover: the window saves
	// queries outright, and the slack is a margin kept as it was.
	if sem > plain+plain/20 {
		t.Errorf("the BestSellers window raised db load: %d queries vs %d plain", sem, plain)
	}
	t.Logf("%d queries plain, %d with the window and %d semantic hits", plain, sem, semTotals.SemanticHits)
	tbl, err := Fig15(p)
	renders(t, tbl, err, 3)
}

func TestFig16Breakdown(t *testing.T) {
	tbl, err := Fig16(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, row := range tbl.Rows {
		names[row[0]] = true
	}
	for _, want := range []string{"BrowseCategories", "ViewItem", "AboutMe", "SearchItemsByCategory"} {
		if !names[want] {
			t.Errorf("missing interaction %s", want)
		}
	}
	// Write interactions must not appear.
	for _, bad := range []string{"StoreBid", "StoreComment"} {
		if names[bad] {
			t.Errorf("write interaction %s in read figure", bad)
		}
	}
}

func TestFig17SemanticHits(t *testing.T) {
	p := tiny(t)
	p.Measure = 600
	tbl, err := Fig17(p)
	if err != nil {
		t.Fatal(err)
	}
	var home, best []string
	for _, row := range tbl.Rows {
		switch row[0] {
		case "HomeInteraction":
			home = row
		case "BestSellers":
			best = row
		}
	}
	if home == nil || best == nil {
		t.Fatalf("missing rows: %+v", tbl.Rows)
	}
	// Home is uncacheable: zero hits.
	if home[2] != "0.0%" || home[3] != "0.0%" {
		t.Errorf("HomeInteraction should have no hits: %v", home)
	}
	// BestSellers hits come from the semantic window.
	if best[2] != "0.0%" {
		t.Errorf("BestSellers strong-consistency hits should be 0 under the window: %v", best)
	}
}

func TestFig18AndFig19Render(t *testing.T) {
	p := tiny(t)
	for _, fn := range []func(Params) (*Table, error){Fig18, Fig19} {
		tbl, err := fn(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			t.Fatal("empty breakdown table")
		}
		out := tbl.String()
		if !strings.Contains(out, tbl.Title) {
			t.Fatal("render missing title")
		}
	}
}

func TestFig20CountsRoles(t *testing.T) {
	tbl, err := Fig20("../..")
	if err != nil {
		t.Fatal(err)
	}
	byRole := map[string]int{}
	for _, row := range tbl.Rows {
		n, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatal(err)
		}
		byRole[row[0]] = n
	}
	weaveLines := byRole["Weaving code (AspectJ analogue)"]
	lib := byRole["Caching library (JWebCaching analogue)"]
	apps := byRole["Web application: RUBiS"] + byRole["Web application: TPC-W"]
	if weaveLines == 0 || lib == 0 || apps == 0 {
		t.Fatalf("missing roles: %+v", byRole)
	}
	// The paper's Fig. 20 claim: weaving code is much smaller than both.
	if weaveLines >= lib || weaveLines >= apps {
		t.Errorf("weaving code (%d) should be smaller than library (%d) and apps (%d)", weaveLines, lib, apps)
	}
}

func TestAblationStrategiesMonotone(t *testing.T) {
	p := tiny(t)
	tbl, err := AblationStrategies(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	inval := func(row []string) float64 {
		v, _ := strconv.ParseFloat(row[3], 64)
		return v
	}
	// More precise strategies must not invalidate more pages. Small runs
	// are noisy; allow 20% slack.
	if inval(tbl.Rows[2]) > inval(tbl.Rows[0])*1.2+5 {
		t.Errorf("ExtraQuery invalidates more than ColumnOnly: %v vs %v", tbl.Rows[2], tbl.Rows[0])
	}
}

func TestAblationReplacementCapacities(t *testing.T) {
	p := tiny(t)
	p.Measure = 400
	tbl, err := AblationReplacement(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 { // 3 capacities x {SLRU, SLRU+TinyLFU}
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// The smallest budget must actually exercise eviction under both
	// policies, or the table compares nothing.
	for _, row := range tbl.Rows[:2] {
		if n, err := strconv.Atoi(row[3]); err != nil || n == 0 {
			t.Errorf("%s %s: evictions %q, want > 0", row[0], row[1], row[3])
		}
	}
}

func TestCountLines(t *testing.T) {
	n, err := CountLines(".", false)
	if err != nil {
		t.Fatal(err)
	}
	if n < 100 {
		t.Fatalf("suspiciously few lines in bench package: %d", n)
	}
	withTests, err := CountLines(".", true)
	if err != nil {
		t.Fatal(err)
	}
	if withTests <= n {
		t.Fatal("including tests should increase the count")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID: "x", Title: "T", Columns: []string{"A", "B"},
		Notes: []string{"n1"},
	}
	tbl.AddRow("v", 1.5)
	out := tbl.String()
	for _, want := range []string{"== x: T ==", "A", "v", "1.50", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in %q", want, out)
		}
	}
}

func TestParallelScalability(t *testing.T) {
	p := Fast()
	p.Measure = 200 // keep the per-cell op count small for CI
	tbl, err := ParallelScalability(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		for i, cell := range row {
			if cell == "" {
				t.Fatalf("empty cell %d in row %v", i, row)
			}
		}
	}
}

// TestFragmentBenefit is the -fig F acceptance criterion: on the
// personalised RUBiS mix, fragment-granular caching serves a strictly
// higher cache-served byte fraction than whole-page caching.
func TestFragmentBenefit(t *testing.T) {
	p := tiny(t)
	whole, frag, err := FragmentModes(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cache-served byte fraction: whole-page %.1f%%, fragments %.1f%%", 100*whole, 100*frag)
	if frag <= whole {
		t.Fatalf("fragment mode must beat whole-page on cache-served bytes: %.3f <= %.3f", frag, whole)
	}
	if frag == 0 {
		t.Fatal("fragment mode served nothing from the cache")
	}
}

func TestFragmentBenefitTableRenders(t *testing.T) {
	p := tiny(t)
	p.RubisClients = []int{8}
	tbl, err := FragmentBenefit(p)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"AutoWebCache+Fragments", "CachedBytes%", "FragHit%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figF table missing %q:\n%s", want, out)
		}
	}
}

// TestHitPathFragmentRecord pins the new benchmark record's presence and
// the page-hit zero-alloc guarantee the gate enforces.
func TestHitPathFragmentRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark records take seconds")
	}
	recs, err := HitPathRecords()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]HitPathRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if _, ok := byName["fragment-assembly"]; !ok {
		t.Fatal("fragment-assembly record missing")
	}
	if r := byName["page-hit"]; r.AllocsPerOp != 0 {
		t.Fatalf("page-hit regressed to %d allocs/op", r.AllocsPerOp)
	}
}
