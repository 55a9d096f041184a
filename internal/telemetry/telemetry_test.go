package telemetry

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collect returns a registry whose single collector is fn.
func collect(fn func(g *Gatherer)) *Registry {
	r := NewRegistry()
	r.Collect(fn)
	return r
}

func scrapeText(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestRegistryPanicsOnBadWiring: every wiring mistake a collector can make
// panics at the first scrape instead of rendering an invalid exposition.
func TestRegistryPanicsOnBadWiring(t *testing.T) {
	cases := []struct {
		name string
		fn   func(g *Gatherer)
	}{
		{"invalid name", func(g *Gatherer) { g.Declare("9bad", TypeCounter, "") }},
		{"invalid label", func(g *Gatherer) { g.Declare("ok_total", TypeCounter, "", "le-bad") }},
		{"duplicate", func(g *Gatherer) {
			g.Declare("dup", TypeCounter, "")
			g.Declare("dup", TypeGauge, "")
		}},
		{"redeclared labels", func(g *Gatherer) {
			g.Declare("dup_total", TypeCounter, "", "a")
			g.Declare("dup_total", TypeCounter, "", "b")
		}},
		{"arity", func(g *Gatherer) {
			g.Declare("v_total", TypeCounter, "", "a")
			g.Value("v_total", 1, "x", "y")
		}},
		{"undeclared", func(g *Gatherer) { g.Value("nobody_total", 1) }},
		{"value on histogram", func(g *Gatherer) {
			g.Declare("h_seconds", TypeHistogram, "")
			g.Value("h_seconds", 1)
		}},
		{"histo on counter", func(g *Gatherer) {
			g.Declare("c_total", TypeCounter, "")
			var d DurationHist
			g.Histo("c_total", d.Snapshot())
		}},
		{"descending bounds", func(g *Gatherer) {
			g.Declare("h_seconds", TypeHistogram, "")
			g.Histo("h_seconds", HistSnapshot{Bounds: []float64{2, 1}, Buckets: make([]uint64, 3)})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			_ = collect(tc.fn).WriteText(&strings.Builder{})
		})
	}
	// Re-declaring identical metadata is allowed: collectors for N cluster
	// nodes in one process share family names.
	r := collect(func(g *Gatherer) {
		g.Declare("shared_total", TypeCounter, "", "node")
		g.Declare("shared_total", TypeCounter, "", "node")
		g.Value("shared_total", 1, "a")
	})
	if _, err := ParseText(strings.NewReader(scrapeText(t, r))); err != nil {
		t.Fatal(err)
	}
}

func TestWriteTextRoundTrip(t *testing.T) {
	var d DurationHist
	d.Observe(500 * time.Nanosecond)
	d.Observe(2 * time.Millisecond)
	r := collect(func(g *Gatherer) {
		g.Declare("awc_hits_total", TypeCounter, "Cache hits by handler.", "handler")
		g.Value("awc_hits_total", 7, "search")
		g.Value("awc_hits_total", 3, "view\"item\n\\x") // escaping stress
		g.Declare("awc_entries", TypeGauge, "Entries resident.")
		g.Value("awc_entries", 42)
		g.Declare("awc_peer_state", TypeGauge, "Peer state one-hot.", "peer", "state")
		g.Value("awc_peer_state", 1, "127.0.0.1:9091", "healthy")
		g.Declare("awc_latency_seconds", TypeHistogram, "Latency.", "outcome")
		// Non-cumulative buckets: 0.0005, 0.05 and 5 (the +Inf bucket).
		g.Histo("awc_latency_seconds", HistSnapshot{Bounds: []float64{0.001, 0.01, 0.1},
			Buckets: []uint64{1, 0, 1, 1}, Count: 3, Sum: 5.0505}, "hit")
		g.Declare("awc_fetch_seconds", TypeHistogram, "Fetch latency.")
		g.Histo("awc_fetch_seconds", d.Snapshot())
	})

	text := scrapeText(t, r)
	sc, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("round-trip parse failed: %v\n%s", err, text)
	}

	if v, ok := sc.Value("awc_hits_total", "handler=search"); !ok || v != 7 {
		t.Fatalf("hits{search} = %v,%v want 7", v, ok)
	}
	if v, ok := sc.Value("awc_hits_total", "handler=view\"item\n\\x"); !ok || v != 3 {
		t.Fatalf("escaped label did not round-trip: %v,%v", v, ok)
	}
	if v, ok := sc.Value("awc_entries"); !ok || v != 42 {
		t.Fatalf("entries = %v,%v", v, ok)
	}
	if v, ok := sc.Value("awc_peer_state", "peer=127.0.0.1:9091", "state=healthy"); !ok || v != 1 {
		t.Fatalf("collected peer state = %v,%v", v, ok)
	}
	// Histogram semantics: cumulative buckets, +Inf == count.
	if v, ok := sc.Value("awc_latency_seconds_bucket", "outcome=hit", "le=0.001"); !ok || v != 1 {
		t.Fatalf("le=0.001 bucket = %v,%v want 1", v, ok)
	}
	if v, ok := sc.Value("awc_latency_seconds_bucket", "outcome=hit", "le=0.1"); !ok || v != 2 {
		t.Fatalf("le=0.1 bucket = %v,%v want 2 (cumulative)", v, ok)
	}
	if v, ok := sc.Value("awc_latency_seconds_bucket", "outcome=hit", "le=+Inf"); !ok || v != 3 {
		t.Fatalf("+Inf bucket = %v,%v want 3", v, ok)
	}
	if v, ok := sc.Value("awc_latency_seconds_count", "outcome=hit"); !ok || v != 3 {
		t.Fatalf("count = %v,%v want 3", v, ok)
	}
	if v, ok := sc.Value("awc_latency_seconds_sum", "outcome=hit"); !ok || math.Abs(v-5.0505) > 1e-9 {
		t.Fatalf("sum = %v,%v want 5.0505", v, ok)
	}
	if v, ok := sc.Value("awc_fetch_seconds_count"); !ok || v != 2 {
		t.Fatalf("collected hist count = %v,%v want 2", v, ok)
	}
	if fam := sc.Families["awc_latency_seconds"]; fam == nil || fam.Type != "histogram" || fam.Help != "Latency." {
		t.Fatalf("histogram family type lost: %+v", fam)
	}
	// Families reports the declared metadata the docs generator renders.
	fams := r.Families()
	if len(fams) != 5 {
		t.Fatalf("families = %+v, want 5", fams)
	}
	if f := fams[len(fams)-1]; f.Name != "awc_peer_state" || f.Type != TypeGauge ||
		len(f.Labels) != 2 || f.Labels[0] != "peer" || f.Labels[1] != "state" {
		t.Fatalf("family meta wrong: %+v", f)
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	build := func() string {
		return scrapeText(t, collect(func(g *Gatherer) {
			g.Declare("z_total", TypeCounter, "", "l")
			g.Value("z_total", 1, "b")
			g.Value("z_total", 1, "a")
			g.Declare("a_total", TypeCounter, "")
			g.Value("a_total", 1)
		}))
	}
	one := build()
	for i := 0; i < 5; i++ {
		if got := build(); got != one {
			t.Fatalf("render not deterministic:\n%s\nvs\n%s", one, got)
		}
	}
	if strings.Index(one, "a_total") > strings.Index(one, "z_total") {
		t.Fatal("families not name-sorted")
	}
	if strings.Index(one, `z_total{l="a"}`) > strings.Index(one, `z_total{l="b"}`) {
		t.Fatal("series not label-sorted")
	}
}

func TestDurationHist(t *testing.T) {
	var h DurationHist
	if !h.Empty() {
		t.Fatal("zero value not empty")
	}
	h.Observe(100 * time.Nanosecond) // bucket 0 (<=250ns)
	h.Observe(250 * time.Nanosecond) // bucket 0 (boundary inclusive)
	h.Observe(251 * time.Nanosecond) // bucket 1
	h.Observe(10 * time.Second)      // +Inf
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[len(s.Buckets)-1] != 1 {
		t.Fatalf("buckets = %v", s.Buckets)
	}
	wantSum := (100 + 250 + 251 + 10_000_000_000) / 1e9
	if math.Abs(s.Sum-wantSum) > 1e-12 {
		t.Fatalf("sum = %v want %v", s.Sum, wantSum)
	}
	if len(s.Bounds) != DurationBucketCount || len(s.Buckets) != DurationBucketCount+1 {
		t.Fatalf("shape: %d bounds, %d buckets", len(s.Bounds), len(s.Buckets))
	}
}

func TestHistSnapshotMerge(t *testing.T) {
	var a, b DurationHist
	a.Observe(time.Microsecond)
	b.Observe(time.Millisecond)
	b.Observe(2 * time.Millisecond)
	var tot HistSnapshot
	tot.Merge(a.Snapshot())
	tot.Merge(b.Snapshot())
	if tot.Count != 3 {
		t.Fatalf("merged count = %d", tot.Count)
	}
	want := a.Snapshot().Sum + b.Snapshot().Sum
	if math.Abs(tot.Sum-want) > 1e-12 {
		t.Fatalf("merged sum = %v want %v", tot.Sum, want)
	}
}

// TestHotPathZeroAlloc: DurationHist.Observe — the one instrument the
// request paths update — never allocates.
func TestHotPathZeroAlloc(t *testing.T) {
	var d DurationHist
	allocs := testing.AllocsPerRun(1000, func() {
		d.Observe(420 * time.Nanosecond)
		d.Observe(5 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("DurationHist.Observe allocated %v allocs/op, want 0", allocs)
	}
}

// TestConcurrentUseWithScrapes: scrapes taken while writers observe into
// the collected DurationHist and counters — and while another collector is
// registered — always render a valid exposition.
func TestConcurrentUseWithScrapes(t *testing.T) {
	var d DurationHist
	var ops [2]atomic.Uint64
	r := collect(func(g *Gatherer) {
		g.Declare("ops_total", TypeCounter, "", "kind")
		g.Value("ops_total", float64(ops[0].Load()), "a")
		g.Value("ops_total", float64(ops[1].Load()), "b")
		g.Declare("d_seconds", TypeHistogram, "")
		g.Histo("d_seconds", d.Snapshot())
	})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					ops[i%2].Add(1)
					d.Observe(time.Duration(i+1) * time.Microsecond)
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.Collect(func(g *Gatherer) {
			g.Declare("late", TypeGauge, "")
			g.Value("late", 1)
		})
	}()
	for i := 0; i < 20; i++ {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseText(strings.NewReader(sb.String())); err != nil {
			t.Fatalf("scrape %d invalid under concurrency: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestHandlerServesMetrics(t *testing.T) {
	r := collect(func(g *Gatherer) {
		g.Declare("x_total", TypeCounter, "help")
		g.Value("x_total", 9)
	})
	RegisterRuntimeMetrics(r)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	sc, err := ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("x_total"); !ok || v != 9 {
		t.Fatalf("x_total = %v,%v", v, ok)
	}
	if v, ok := sc.Value("go_goroutines"); !ok || v < 1 {
		t.Fatalf("go_goroutines = %v,%v", v, ok)
	}
	if f := sc.Families["process_start_time_seconds"]; f == nil || f.Type != "gauge" || len(f.Samples) != 1 || f.Samples[0].Value <= 0 {
		t.Fatalf("process_start_time_seconds = %+v", f)
	}
	if v, ok := sc.Value("go_memstats_heap_alloc_bytes"); !ok || v <= 0 {
		t.Fatalf("heap gauge = %v,%v", v, ok)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"9name 1",
		"x{l=unquoted} 1",
		`x{l="v"} notanumber`,
		`x{l="v"} 1 2 3`,
		"# TYPE x rainbow\nx 1",
		// non-cumulative buckets
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5",
		// missing +Inf
		"# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5",
		// count disagrees with +Inf
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4",
	}
	for _, in := range bad {
		if _, err := ParseText(strings.NewReader(in)); err == nil {
			t.Fatalf("ParseText accepted malformed input:\n%s", in)
		}
	}
}

func TestParseSpecialValues(t *testing.T) {
	sc, err := ParseText(strings.NewReader("a +Inf\nb -Inf\nc NaN\nd 1e-9\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := sc.Value("a"); !math.IsInf(v, 1) {
		t.Fatalf("a = %v", v)
	}
	if v, _ := sc.Value("b"); !math.IsInf(v, -1) {
		t.Fatalf("b = %v", v)
	}
	if v, _ := sc.Value("c"); !math.IsNaN(v) {
		t.Fatalf("c = %v", v)
	}
	if v, _ := sc.Value("d"); v != 1e-9 {
		t.Fatalf("d = %v", v)
	}
}
