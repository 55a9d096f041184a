package autowebcache_test

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"autowebcache"
	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/memdb"
	"autowebcache/internal/telemetry"
	"autowebcache/internal/weave"
)

// scrapeAdmin GETs the admin mux's /metrics and returns the validated
// parse — so every test scrape also round-trips the exposition format.
func scrapeAdmin(t *testing.T, admin *autowebcache.Admin) *telemetry.Scrape {
	t.Helper()
	rr := httptest.NewRecorder()
	admin.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content-type %q", ct)
	}
	sc, err := telemetry.ParseText(rr.Body)
	if err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	return sc
}

// TestAdminEndpoints wires one full runtime into an Admin and checks every
// endpoint: /metrics values agree with the layers' own Snapshot()s,
// /statsz serves the same numbers as JSON, /healthz answers.
func TestAdminEndpoints(t *testing.T) {
	db := newDB(t)
	rt, err := autowebcache.New(db, autowebcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.Weave(buildApp(t, rt.Conn()), autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	admin := autowebcache.NewAdmin().Watch(rt, h, nil)

	// Scripted traffic: 1 write, then miss + 2 hits on /list.
	get(t, h, "/add?note=x")
	for i := 0; i < 3; i++ {
		get(t, h, "/list")
	}

	sc := scrapeAdmin(t, admin)
	app := h.Snapshot()
	var list *autowebcache.InteractionStats
	for i := range app.Interactions {
		if app.Interactions[i].Name == "List" {
			list = &app.Interactions[i]
		}
	}
	if list == nil {
		t.Fatal("no List interaction in snapshot")
	}
	checks := []struct {
		series string
		labels []string
		want   float64
	}{
		{"awc_requests_total", []string{"handler=List"}, float64(list.Requests)},
		{"awc_hits_total", []string{"handler=List"}, float64(list.Hits)},
		{"awc_misses_total", []string{"handler=List"}, float64(list.Misses)},
		{"awc_writes_total", []string{"handler=Add"}, 1},
		{"awc_response_bytes_total", []string{"handler=List"}, float64(list.BytesOut)},
		{"awc_request_duration_seconds_count", []string{"handler=List", "outcome=hit"}, 2},
		{"awc_cache_hits_total", []string{"cache=page"}, float64(rt.Cache().Snapshot().Hits)},
		{"awc_cache_misses_total", []string{"cache=page"}, float64(rt.Cache().Snapshot().Misses)},
	}
	for _, c := range checks {
		got, ok := sc.Value(c.series, c.labels...)
		if !ok {
			t.Fatalf("series %s{%s} missing from /metrics", c.series, strings.Join(c.labels, ","))
		}
		if got != c.want {
			t.Errorf("%s{%s} = %v, want %v", c.series, strings.Join(c.labels, ","), got, c.want)
		}
	}
	// Runtime metrics ride along.
	if v, ok := sc.Value("go_goroutines"); !ok || v <= 0 {
		t.Errorf("go_goroutines = %v, %v", v, ok)
	}

	// Occupancy gauges: segment entries sum to the cache's entry count.
	prob, _ := sc.Value("awc_cache_entries", "cache=page", "segment=probation")
	prot, _ := sc.Value("awc_cache_entries", "cache=page", "segment=protected")
	if int(prob+prot) != rt.Cache().Len() {
		t.Errorf("segment entries %v+%v != cache Len %d", prob, prot, rt.Cache().Len())
	}

	// /statsz serves the same snapshot as JSON.
	rr := httptest.NewRecorder()
	admin.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/statsz status %d", rr.Code)
	}
	var snap autowebcache.Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/statsz not JSON: %v", err)
	}
	if snap.App == nil || snap.Cache == nil {
		t.Fatalf("/statsz missing layers: %+v", snap)
	}
	if snap.Cluster != nil {
		t.Fatal("/statsz reports a cluster on an unclustered runtime")
	}

	// /healthz.
	rr = httptest.NewRecorder()
	admin.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusOK || rr.Body.String() != "ok\n" {
		t.Fatalf("/healthz: %d %q", rr.Code, rr.Body.String())
	}

	// pprof index answers on the same mux.
	rr = httptest.NewRecorder()
	admin.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", rr.Code)
	}
}

// TestMetricsReferenceCurrent pins docs/METRICS.md to the live registry:
// any metrics change that is not regenerated into the committed reference
// fails here (and in `make docs-check`).
func TestMetricsReferenceCurrent(t *testing.T) {
	want, err := autowebcache.MetricsReference()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatal("docs/METRICS.md is stale — regenerate with: go run ./cmd/metricsdoc -out docs/METRICS.md")
	}
}

// TestInstrumentedHitPathZeroAlloc guards the tentpole constraint: the
// governed page-hit path stays 0 allocs/op with telemetry fully enabled —
// byte budget + admission filter on the cache, outcome counters, byte
// counters and the per-outcome latency histogram recorded per request, and
// an Admin watching the layers (watching registers scrape-time collectors,
// so it must add nothing to the request path).
func TestInstrumentedHitPathZeroAlloc(t *testing.T) {
	eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: eng, MaxBytes: 1 << 20, Admission: true})
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1024)
	c.Insert("/hot", body, "text/html", []analysis.Query{
		{SQL: "SELECT a FROM t WHERE b = ?", Args: []memdb.Value{int64(1)}},
	}, 0)
	c.Lookup("/hot") // one-time probation->protected promotion

	stats := weave.NewStats()
	stats.RecordServed("Hot", weave.OutcomeHit, time.Microsecond, 0, len(body), len(body))

	// An Admin watching the cache, as a server would run it.
	admin := autowebcache.NewAdmin().WatchCache(c)
	_ = scrapeAdmin(t, admin) // collectors ran at least once

	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Lookup("/hot"); !ok {
			t.Fatal("unexpected miss")
		}
		stats.RecordServed("Hot", weave.OutcomeHit, time.Microsecond, 0, len(body), len(body))
	})
	if allocs != 0 {
		t.Fatalf("instrumented governed hit path allocates %.1f/op, want 0", allocs)
	}
}

// TestAdminL2Metrics scrapes the disk-tier families in both wiring states:
// without an L2 store every awc_cache_l2_* series is present and zero (the
// series set is deterministic from wiring, not traffic), and with one
// attached the tier-movement counters and occupancy gauges agree with the
// cache's own Snapshot().
func TestAdminL2Metrics(t *testing.T) {
	// No store attached: series exist, all zero.
	rt, err := autowebcache.New(newDB(t), autowebcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc := scrapeAdmin(t, autowebcache.NewAdmin().WatchCache(rt.Cache()))
	for _, series := range []string{
		"awc_cache_l2_demotions_total", "awc_cache_l2_promotions_total",
		"awc_cache_l2_hits_total", "awc_cache_l2_restored_entries_total",
		"awc_cache_l2_entries", "awc_cache_l2_bytes", "awc_cache_l2_file_bytes",
	} {
		if v, ok := sc.Value(series); !ok || v != 0 {
			t.Errorf("without L2: %s = %v, %v; want 0, present", series, v, ok)
		}
	}

	// Store attached under a tight L1 budget: demotions and disk puts flow.
	rt2, err := autowebcache.New(newDB(t), autowebcache.Config{
		PageCache: autowebcache.PageCacheConfig{
			MaxBytes: 8 << 10,
			L2Path:   t.TempDir(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	h, err := rt2.Weave(buildApp(t, rt2.Conn()), autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	get(t, h, "/add?note="+strings.Repeat("x", 2048))
	for i := 0; i < 32; i++ {
		get(t, h, fmt.Sprintf("/list?page=%d", i))
	}
	st := rt2.Cache().Snapshot()
	if st.Demotions == 0 {
		t.Fatalf("no demotions under an 8 KiB budget: %+v", st)
	}
	sc = scrapeAdmin(t, autowebcache.NewAdmin().WatchCache(rt2.Cache()))
	for series, want := range map[string]float64{
		"awc_cache_l2_demotions_total": float64(st.Demotions),
		"awc_cache_l2_puts_total":      float64(st.L2.Puts),
		"awc_cache_l2_entries":         float64(st.L2.Entries),
		"awc_cache_l2_bytes":           float64(st.L2.Bytes),
	} {
		if got, ok := sc.Value(series); !ok || got != want {
			t.Errorf("%s = %v, %v; want %v", series, got, ok, want)
		}
	}
	if v, _ := sc.Value("awc_cache_l2_entries"); v == 0 {
		t.Error("demotions recorded but the disk tier reports no entries")
	}
}

// reservePorts grabs n distinct loopback TCP ports and releases them, so a
// test can hand concrete peer addresses to a cluster before the nodes bind.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range listeners {
		l.Close()
	}
	return addrs
}

// TestThreeNodeClusterMetrics boots a 3-node cluster in-process over one
// shared named memdb, scripts hit / miss / cross-node invalidation /
// partition traffic, and asserts every node's scraped /metrics agrees with
// its own Stats — the end-to-end form of the snapshot-collector guarantee.
func TestThreeNodeClusterMetrics(t *testing.T) {
	dbName := fmt.Sprintf("metrics-e2e-%d", time.Now().UnixNano())
	peerAddrs := reservePorts(t, 3)

	type tnode struct {
		rt    *autowebcache.Runtime
		h     *autowebcache.Woven
		node  *autowebcache.ClusterNode
		admin *autowebcache.Admin
	}
	nodes := make([]*tnode, 3)
	for i := range nodes {
		rt, err := autowebcache.Open("memdb:"+dbName, autowebcache.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := rt.DB().CreateTable(autowebcache.TableSpec{
				Name: "notes",
				Columns: []autowebcache.Column{
					{Name: "id", Type: autowebcache.TypeInt, AutoIncrement: true},
					{Name: "note", Type: autowebcache.TypeString},
				},
			}); err != nil {
				t.Fatal(err)
			}
		}
		h, err := rt.Weave(buildApp(t, rt.Conn()), autowebcache.Rules{})
		if err != nil {
			t.Fatal(err)
		}
		var peers []string
		for j, a := range peerAddrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		node, err := rt.Cluster(h, autowebcache.ClusterConfig{
			ListenPeer:    peerAddrs[i],
			Peers:         peers,
			ProbeInterval: -1, // no background probes: the script is deterministic
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		nodes[i] = &tnode{rt: rt, h: h, node: node,
			admin: autowebcache.NewAdmin().Watch(rt, h, node)}
	}

	outcome := func(n *tnode, target string) string {
		rr := get(t, n.h, target)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d", target, rr.Code)
		}
		return rr.Header().Get("X-Autowebcache")
	}

	// Scripted traffic: seed a row, miss then hit on node 1, write on
	// node 2 (strong cluster-wide invalidation), re-read on node 1.
	if o := outcome(nodes[0], "/add?note=first"); o != "write" {
		t.Fatalf("seed write outcome %q", o)
	}
	if o := outcome(nodes[0], "/list"); o != "miss" && o != "remote-hit" {
		t.Fatalf("cold read outcome %q", o)
	}
	if o := outcome(nodes[0], "/list"); o != "hit" {
		t.Fatalf("warm read outcome %q, want hit", o)
	}
	if o := outcome(nodes[1], "/add?note=second"); o != "write" {
		t.Fatalf("cross-node write outcome %q", o)
	}
	if o := outcome(nodes[0], "/list"); o == "hit" || o == "semantic-hit" {
		t.Fatalf("node 1 served %q after node 2's write: invalidation lost", o)
	}

	// Every node's scrape must agree with its own snapshots, exactly.
	for i, n := range nodes {
		sc := scrapeAdmin(t, n.admin)
		app := n.h.Snapshot()
		for _, is := range app.Interactions {
			for series, want := range map[string]uint64{
				"awc_requests_total": is.Requests,
				"awc_hits_total":     is.Hits,
				"awc_misses_total":   is.Misses,
				"awc_writes_total":   is.Writes,
			} {
				got, ok := sc.Value(series, "handler="+is.Name)
				if !ok {
					t.Fatalf("node %d: %s{handler=%s} missing", i+1, series, is.Name)
				}
				if got != float64(want) {
					t.Errorf("node %d: %s{handler=%s} = %v, stats say %d", i+1, series, is.Name, got, want)
				}
			}
		}
		cs := n.node.Snapshot()
		for series, want := range map[string]uint64{
			"awc_cluster_inv_applied_total":            cs.InvApplied,
			"awc_cluster_inv_sent_total":               cs.InvSent,
			"awc_cluster_remote_hits_total":            cs.RemoteHits,
			"awc_cluster_inv_broadcast_failures_total": cs.InvBroadcastFailures,
		} {
			got, ok := sc.Value(series)
			if !ok {
				t.Fatalf("node %d: %s missing", i+1, series)
			}
			if got != float64(want) {
				t.Errorf("node %d: %s = %v, stats say %d", i+1, series, got, want)
			}
		}
		// Two peers, each with a one-hot state vector summing to 1.
		for peer := range n.node.PeerStates() {
			var sum float64
			for _, state := range []string{"healthy", "suspect", "down"} {
				v, ok := sc.Value("awc_cluster_peer_state", "peer="+peer, "state="+state)
				if !ok {
					t.Fatalf("node %d: peer_state{%s,%s} missing", i+1, peer, state)
				}
				sum += v
			}
			if sum != 1 {
				t.Errorf("node %d: peer %s one-hot sums to %v", i+1, peer, sum)
			}
		}
	}

	// The cluster-wide write must have been applied by the peers: across
	// the other two nodes, at least one invalidation was applied.
	applied := nodes[0].node.Snapshot().InvApplied + nodes[2].node.Snapshot().InvApplied
	if applied == 0 {
		t.Fatal("no peer applied node 2's invalidation broadcast")
	}

	// Partition: kill node 3's peer tier. A write on node 1 still succeeds
	// as a plain write; the missed peer shows only in the cluster series.
	nodes[2].node.Close()
	if o := outcome(nodes[0], "/add?note=third"); o != "write" {
		t.Fatalf("write with a dead peer: outcome %q, want write", o)
	}
	sc := scrapeAdmin(t, nodes[0].admin)
	if v, _ := sc.Value("awc_cluster_inv_broadcast_failures_total"); v < 1 {
		t.Errorf("awc_cluster_inv_broadcast_failures_total = %v after a write with a dead peer", v)
	}
	if v, _ := sc.Value("awc_writes_total", "handler=Add"); v != 2 || v != float64(nodes[0].h.Snapshot().Total.Writes) {
		t.Errorf("awc_writes_total{handler=Add} = %v after a write with a dead peer, want 2 matching the stats", v)
	}
}
