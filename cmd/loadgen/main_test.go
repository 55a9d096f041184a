package main

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autowebcache"
	"autowebcache/internal/rubis"
)

func TestBuildMix(t *testing.T) {
	good := [][2]string{{"rubis", "bidding"}, {"rubis", "browsing"}, {"rubis", "personalized"},
		{"tpcw", "shopping"}, {"tpcw", "browsing"}}
	for _, g := range good {
		if _, err := buildMix(g[0], g[1]); err != nil {
			t.Errorf("%v: %v", g, err)
		}
	}
	bad := [][2]string{{"rubis", "shopping"}, {"tpcw", "bidding"}, {"nope", "x"}}
	for _, b := range bad {
		if _, err := buildMix(b[0], b[1]); err == nil {
			t.Errorf("%v: expected error", b)
		}
	}
}

func TestRunAgainstLiveServer(t *testing.T) {
	db := autowebcache.NewDB()
	scale := rubis.Scale{Regions: 2, Categories: 3, Users: 10, Items: 20,
		BidsPerItem: 2, CommentsPerUser: 1, BuyNows: 5, Seed: 1}
	last, err := rubis.Load(db, scale)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := autowebcache.New(db, autowebcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	app := rubis.New(rt.Conn(), scale, last)
	h, err := rt.Weave(app.Handlers(), autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	var out strings.Builder
	err = run([]string{
		"-target", srv.URL, "-app", "rubis", "-clients", "4",
		"-duration", "300ms", "-think", "1ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !strings.Contains(report, "total ") || !strings.Contains(report, "hit rate") {
		t.Fatalf("report: %q", report)
	}
	if strings.Contains(report, "errs") && strings.Contains(report, " 0 requests") {
		t.Fatalf("no requests issued: %q", report)
	}
}

func TestRunBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-nosuch"}, &out); err == nil {
		t.Fatal("expected flag error")
	}
	if err := run([]string{"-app", "nope"}, &out); err == nil {
		t.Fatal("expected app error")
	}
	if err := run([]string{"-clients", "0"}, &out); err == nil {
		t.Fatal("expected error for zero clients")
	}
}

// TestConcurrencyFlag drives a live server with 8 parallel clients, the
// client-goroutine fan-out that exercises the sharded page cache.
func TestConcurrencyFlag(t *testing.T) {
	db := autowebcache.NewDB()
	scale := rubis.Scale{Regions: 2, Categories: 3, Users: 10, Items: 20,
		BidsPerItem: 2, CommentsPerUser: 1, BuyNows: 5, Seed: 1}
	last, err := rubis.Load(db, scale)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := autowebcache.New(db, autowebcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	app := rubis.New(rt.Conn(), scale, last)
	h, err := rt.Weave(app.Handlers(), autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	var out strings.Builder
	err = run([]string{
		"-target", srv.URL, "-app", "rubis", "-clients", "8",
		"-duration", "300ms", "-think", "0s",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "total ") {
		t.Fatalf("report: %q", out.String())
	}
}

// TestFragmentReportAttribution drives the personalized mix against a stub
// that answers with fragment-assembly headers and checks the report's new
// frag/asm columns and cache-served byte fraction.
func TestFragmentReportAttribution(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n.Add(1) % 3 {
		case 0:
			w.Header().Set("X-Autowebcache", "fragment-hit")
			w.Header().Set("X-Autowebcache-Fragments", "2/2")
			w.Header().Set("X-Autowebcache-Cached-Bytes", "30")
		case 1:
			w.Header().Set("X-Autowebcache", "assembled")
			w.Header().Set("X-Autowebcache-Fragments", "1/2")
			w.Header().Set("X-Autowebcache-Cached-Bytes", "15")
		default:
			w.Header().Set("X-Autowebcache", "hit")
		}
		_, _ = w.Write([]byte("<html>thirty-six bytes of body.</html>"))
	}))
	defer srv.Close()

	var out strings.Builder
	err := run([]string{
		"-target", srv.URL, "-app", "rubis", "-mix", "personalized",
		"-clients", "2", "-duration", "150ms", "-think", "0s",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{"frag", "asm", "hit rate", "cache-served bytes"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

// TestReportCountsCoalesced: coalesced serves (and 304s) are hits, as on
// the server (awc_hits_total, HitRate) and in awcbench's hit_ratio — both
// in the per-row hit column and in the total hit rate.
func TestReportCountsCoalesced(t *testing.T) {
	stats := map[string]*outcomeStats{"ViewItem": {
		count: 10, total: 10 * time.Millisecond,
		outcomes: map[string]int{"hit": 2, "semantic-hit": 1, "coalesced": 3,
			"not-modified": 1, "remote-hit": 1, "miss": 2},
	}}
	var out strings.Builder
	report(&out, stats)
	var row []string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "ViewItem" {
			row = f
		}
	}
	// interaction requests mean hit remote frag asm miss write errs
	if len(row) != 10 || row[3] != "7" || row[4] != "1" || row[7] != "2" {
		t.Fatalf("row = %q, want hit 7, remote 1, miss 2:\n%s", row, out.String())
	}
	if !strings.Contains(out.String(), "hit rate 80.0%") {
		t.Fatalf("want hit rate 80.0%% (7 local + 1 remote of 10):\n%s", out.String())
	}
}

// TestScrapeNodeSummary: the -scrape line reports the node's own outcome
// counts, summed across handlers, with writes as one plain column.
func TestScrapeNodeSummary(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte(`# TYPE awc_requests_total counter
awc_requests_total{handler="ViewItem"} 7
awc_requests_total{handler="StoreBid"} 3
# TYPE awc_hits_total counter
awc_hits_total{handler="ViewItem"} 4
# TYPE awc_misses_total counter
awc_misses_total{handler="ViewItem"} 3
# TYPE awc_writes_total counter
awc_writes_total{handler="StoreBid"} 3
`))
	}))
	defer srv.Close()
	var out strings.Builder
	if err := scrapeNode(&out, srv.Client(), srv.URL); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(out.String(), "\n")
	if !strings.HasSuffix(first, "10 requests: 4 hit, 0 remote, 3 miss, 3 write") {
		t.Fatalf("summary line %q", first)
	}
}

func TestFetchResultCachedBytes(t *testing.T) {
	cases := []struct {
		res  fetchResult
		want int64
	}{
		{fetchResult{outcome: "hit", bytes: 100, cached: -1}, 100},
		{fetchResult{outcome: "semantic-hit", bytes: 40, cached: -1}, 40},
		{fetchResult{outcome: "remote-hit", bytes: 40, cached: -1}, 40},
		{fetchResult{outcome: "coalesced", bytes: 40, cached: -1}, 40},
		{fetchResult{outcome: "miss", bytes: 100, cached: -1}, 0},
		{fetchResult{outcome: "uncacheable", bytes: 100, cached: -1}, 0},
		{fetchResult{outcome: "assembled", bytes: 100, cached: 37}, 37},
		{fetchResult{outcome: "fragment-hit", bytes: 100, cached: 90}, 90},
	}
	for _, tc := range cases {
		if got := tc.res.cachedBytes(); got != tc.want {
			t.Errorf("cachedBytes(%+v) = %d, want %d", tc.res, got, tc.want)
		}
	}
}

// buildRubisServer spins one woven RUBiS app behind an httptest server.
func buildRubisServer(t *testing.T) *httptest.Server {
	t.Helper()
	db := autowebcache.NewDB()
	scale := rubis.Scale{Regions: 2, Categories: 3, Users: 10, Items: 20,
		BidsPerItem: 2, CommentsPerUser: 1, BuyNows: 5, Seed: 1}
	last, err := rubis.Load(db, scale)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := autowebcache.New(db, autowebcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	app := rubis.New(rt.Conn(), scale, last)
	h, err := rt.Weave(app.Handlers(), autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// TestMultiTargetMode drives two live servers through -targets and checks
// that the round-robin reached both and the report breaks requests down per
// target.
func TestMultiTargetMode(t *testing.T) {
	srv1 := buildRubisServer(t)
	srv2 := buildRubisServer(t)

	var out strings.Builder
	err := run([]string{
		"-targets", srv1.URL + " , " + srv2.URL + ",",
		"-app", "rubis", "-clients", "4",
		"-duration", "400ms", "-think", "1ms",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, url := range []string{srv1.URL, srv2.URL} {
		idx := strings.Index(report, "target "+url)
		if idx < 0 {
			t.Fatalf("per-target line for %s missing:\n%s", url, report)
		}
		line := report[idx:]
		if nl := strings.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl]
		}
		fields := strings.Fields(line)
		// "target <url> <count> requests <errs> errors"
		if len(fields) != 6 || fields[3] != "requests" || fields[5] != "errors" {
			t.Fatalf("malformed per-target line %q", line)
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil || n <= 0 {
			t.Fatalf("target %s received %q requests:\n%s", url, fields[2], report)
		}
	}
	if !strings.Contains(report, "hit rate") {
		t.Fatalf("summary missing:\n%s", report)
	}
}

// TestMultiTargetDeadTarget: one live node plus one dead URL must degrade —
// run exits nil, the live node serves, and the dead target's share shows up
// as per-target errors instead of aborting the whole generator.
func TestMultiTargetDeadTarget(t *testing.T) {
	live := buildRubisServer(t)
	// A listener that is closed immediately: connection-refused territory.
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()

	var out strings.Builder
	err := run([]string{
		"-targets", live.URL + "," + deadURL,
		"-app", "rubis", "-clients", "4",
		"-duration", "400ms", "-think", "1ms",
	}, &out)
	if err != nil {
		t.Fatalf("loadgen must degrade, not fail, with a dead target: %v", err)
	}
	report := out.String()

	perTarget := func(url string) (reqs, errs int) {
		idx := strings.Index(report, "target "+url)
		if idx < 0 {
			t.Fatalf("per-target line for %s missing:\n%s", url, report)
		}
		line := report[idx:]
		if nl := strings.IndexByte(line, '\n'); nl >= 0 {
			line = line[:nl]
		}
		fields := strings.Fields(line)
		if len(fields) != 6 {
			t.Fatalf("malformed per-target line %q", line)
		}
		reqs, _ = strconv.Atoi(fields[2])
		errs, _ = strconv.Atoi(fields[4])
		return reqs, errs
	}
	liveReqs, liveErrs := perTarget(live.URL)
	deadReqs, deadErrs := perTarget(deadURL)
	// The mix targets DefaultScale IDs while the fixture seeds a tiny
	// database, so a minority of live requests 404 — the live node must
	// still serve the bulk of its share.
	if liveReqs == 0 || liveErrs*2 >= liveReqs {
		t.Fatalf("live target mostly failing: %d requests, %d errors:\n%s", liveReqs, liveErrs, report)
	}
	if deadReqs == 0 || deadErrs != deadReqs {
		t.Fatalf("dead target should fail every attempt: %d requests, %d errors:\n%s",
			deadReqs, deadErrs, report)
	}
}

// TestMultiTargetFlagValidation: an all-empty -targets list is rejected;
// single-target mode prints no per-target breakdown.
func TestMultiTargetFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-targets", " , ,"}, &out); err == nil {
		t.Fatal("expected error for empty -targets")
	}
	srv := buildRubisServer(t)
	out.Reset()
	if err := run([]string{"-target", srv.URL, "-app", "rubis", "-clients", "2",
		"-duration", "200ms", "-think", "1ms"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "target "+srv.URL) {
		t.Fatalf("single-target run printed a per-target breakdown:\n%s", out.String())
	}
}
