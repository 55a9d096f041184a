// Command loadgen drives a running rubis-server or tpcw-server over real
// HTTP with the paper's closed-loop client model, and reports response
// times and cache outcomes from the X-Autowebcache response header — the
// separate client-emulator machine of the paper's testbed (§5).
//
// Usage:
//
//	loadgen -target http://localhost:8080 -app rubis -clients 50 -duration 10s
//	loadgen -target http://localhost:8081 -app tpcw -mix browsing
//
// Multi-target (cluster) mode plays the front-end load balancer of a
// multi-node web tier: each client round-robins its requests across the
// node list, so every node sees every interaction and the peer tier's
// remote hits and invalidation broadcasts are exercised:
//
//	loadgen -targets http://node1:8080,http://node2:8080,http://node3:8080 -app rubis
//
// With -scrape, loadgen reads each node's /metrics (its -metrics-listen
// address) after the run and appends the server-side counters — requests,
// outcomes, cache occupancy, peer health — to the report:
//
//	loadgen -targets ... -scrape 127.0.0.1:9191,127.0.0.1:9192,127.0.0.1:9193
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"autowebcache/internal/cluster"
	"autowebcache/internal/rubis"
	"autowebcache/internal/telemetry"
	"autowebcache/internal/tpcw"
)

// mixSource is the Request method shared by both applications' mixes.
type mixSource interface {
	Request(rng *rand.Rand, client int) (name, target string)
}

// outcomeStats aggregates one interaction's results.
type outcomeStats struct {
	count    int
	total    time.Duration
	outcomes map[string]int
	errors   int
	// bytesOut counts response-body bytes; bytesCached the subset the
	// server reported (or implied, for whole-page hits) as served from the
	// cache — their ratio is the cache-served byte fraction fragment
	// caching moves.
	bytesOut    int64
	bytesCached int64
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func buildMix(app, mixName string) (mixSource, error) {
	switch app {
	case "rubis":
		s := rubis.DefaultScale()
		switch mixName {
		case "bidding":
			return rubis.BiddingMix(s), nil
		case "browsing":
			return rubis.BrowsingMix(s), nil
		case "personalized":
			// Logged-in sessions: the fragmented pages carry a session
			// parameter, so whole-page keys split per user while fragments
			// stay shared (drive a -fragments server to see the contrast).
			return rubis.PersonalizedMix(s), nil
		}
		return nil, fmt.Errorf("unknown rubis mix %q (bidding, browsing, personalized)", mixName)
	case "tpcw":
		s := tpcw.DefaultScale()
		switch mixName {
		case "shopping":
			return tpcw.ShoppingMix(s), nil
		case "browsing":
			return tpcw.BrowsingMix(s), nil
		}
		return nil, fmt.Errorf("unknown tpcw mix %q (shopping, browsing)", mixName)
	}
	return nil, fmt.Errorf("unknown app %q (rubis, tpcw)", app)
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	target := fs.String("target", "http://localhost:8080", "base URL of the server under test")
	targets := fs.String("targets", "",
		"comma-separated base URLs of cluster nodes; clients round-robin across them (overrides -target)")
	app := fs.String("app", "rubis", "application mix to use: rubis or tpcw")
	mixName := fs.String("mix", "", "interaction mix (rubis: bidding, browsing, personalized; tpcw: shopping, browsing)")
	clients := fs.Int("clients", 20, "concurrent emulated clients; use high values with -think 0s to stress the sharded caches")
	duration := fs.Duration("duration", 10*time.Second, "measurement duration")
	think := fs.Duration("think", 50*time.Millisecond, "mean client think time")
	openloop := fs.Bool("openloop", false,
		"open-loop mode: requests depart on a fixed arrival schedule at -rate regardless of response times, and latency is measured from each request's intended send time — the coordinated-omission-free measurement")
	rate := fs.Float64("rate", 200, "open-loop offered load in requests/sec (with -openloop)")
	seed := fs.Int64("seed", 1, "random seed")
	scrape := fs.String("scrape", "",
		"comma-separated admin URLs (the servers' -metrics-listen addresses) to scrape after the run; each node's /metrics joins the report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clients <= 0 {
		return fmt.Errorf("need a positive -clients, got %d", *clients)
	}
	if *mixName == "" {
		if *app == "rubis" {
			*mixName = "bidding"
		} else {
			*mixName = "shopping"
		}
	}
	mix, err := buildMix(*app, *mixName)
	if err != nil {
		return err
	}
	targetList := []string{*target}
	if *targets != "" {
		if targetList = cluster.ParsePeerList(*targets); len(targetList) == 0 {
			return fmt.Errorf("-targets %q contains no URLs", *targets)
		}
	}

	// Closed-loop runs are bounded by the context deadline; the open-loop
	// run is bounded by its arrival schedule instead, so in-flight requests
	// at the end of the schedule still complete (the HTTP client timeout
	// bounds stragglers).
	ctx := context.Background()
	if !*openloop {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *duration)
		defer cancel()
	}
	httpClient := &http.Client{Timeout: 30 * time.Second}

	var mu sync.Mutex
	stats := make(map[string]*outcomeStats)
	perTarget := make([]int, len(targetList))
	perTargetErrs := make([]int, len(targetList))
	record := func(name string, res fetchResult, d time.Duration, failed bool) {
		mu.Lock()
		defer mu.Unlock()
		s := stats[name]
		if s == nil {
			s = &outcomeStats{outcomes: make(map[string]int)}
			stats[name] = s
		}
		s.count++
		s.total += d
		if failed {
			s.errors++
			return
		}
		s.outcomes[res.outcome]++
		s.bytesOut += res.bytes
		s.bytesCached += res.cachedBytes()
	}

	// attempt issues one request and records it; it returns whether the
	// fetch succeeded. intended is the latency clock's zero point: the
	// actual send time in closed-loop mode, the scheduled departure time in
	// open-loop mode — so open-loop latencies include any queueing delay a
	// slow server imposed on the fixed arrival schedule (the
	// coordinated-omission correction).
	attempt := func(client, reqNum int, rng *rand.Rand, intended time.Time) bool {
		name, path := mix.Request(rng, client)
		// Round-robin across the node list, offset per client so the
		// instantaneous load spreads even with few clients.
		ti := (client + reqNum) % len(targetList)
		res, err := fetch(ctx, httpClient, targetList[ti]+path)
		// Count every attempt, including failures: an unhealthy node
		// must show its full share of the load, not look idle — and a
		// dead node degrades the run (errors in the report), never
		// aborts it.
		mu.Lock()
		perTarget[ti]++
		if err != nil {
			perTargetErrs[ti]++
		}
		mu.Unlock()
		record(name, res, time.Since(intended), err != nil)
		return err == nil
	}

	if *openloop {
		if !validRate(*rate) {
			return fmt.Errorf("-openloop needs a positive finite -rate, got %v", *rate)
		}
		ol := runOpenLoop(*clients, *duration, *rate, *seed, attempt)
		report(out, stats)
		ol.print(out)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < *clients; c++ {
			wg.Add(1)
			go func(client int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(*seed + int64(client)*7919))
				for reqNum := 0; ctx.Err() == nil; reqNum++ {
					attempt(client, reqNum, rng, time.Now())
					if *think > 0 {
						d := time.Duration(rng.ExpFloat64() * float64(*think))
						if d > 5**think {
							d = 5 * *think
						}
						timer := time.NewTimer(d)
						select {
						case <-ctx.Done():
							timer.Stop()
						case <-timer.C:
						}
					}
				}
			}(c)
		}
		wg.Wait()
		report(out, stats)
	}
	if len(targetList) > 1 {
		fmt.Fprintln(out)
		for i, tgt := range targetList {
			fmt.Fprintf(out, "target %-40s %8d requests %8d errors\n", tgt, perTarget[i], perTargetErrs[i])
		}
	}
	if *scrape != "" {
		fmt.Fprintln(out)
		for _, base := range cluster.ParsePeerList(*scrape) {
			if err := scrapeNode(out, httpClient, base); err != nil {
				fmt.Fprintf(out, "scrape %-38s error: %v\n", base, err)
			}
		}
	}
	return nil
}

// scrapeNode fetches one node's /metrics (base is its -metrics-listen URL),
// validates the exposition with the telemetry parser, and prints the
// server-side view of the run: requests and outcomes as the node counted
// them, plus the cluster-health series an operator would watch.
func scrapeNode(out io.Writer, client *http.Client, base string) error {
	url := base
	if !strings.HasSuffix(url, "/metrics") {
		url = strings.TrimSuffix(url, "/") + "/metrics"
	}
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	sc, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return fmt.Errorf("invalid exposition: %w", err)
	}
	sum := func(name string, match ...string) float64 {
		fam := sc.Families[name]
		if fam == nil {
			return 0
		}
		want := make(map[string]string, len(match))
		for _, p := range match {
			if k, v, ok := strings.Cut(p, "="); ok {
				want[k] = v
			}
		}
		var total float64
		for _, s := range fam.Samples {
			ok := true
			for k, v := range want {
				if s.Labels[k] != v {
					ok = false
					break
				}
			}
			if ok {
				total += s.Value
			}
		}
		return total
	}
	fmt.Fprintf(out, "node %-38s %6.0f requests: %.0f hit, %.0f remote, %.0f miss, %.0f write\n",
		base, sum("awc_requests_total"),
		sum("awc_hits_total")+sum("awc_semantic_hits_total"),
		sum("awc_remote_hits_total"), sum("awc_misses_total"),
		sum("awc_writes_total"))
	fmt.Fprintf(out, "     %-38s cache %.0f entries / %.0f bytes; peers %.0f healthy, %.0f suspect, %.0f down; %.0f gap flushes\n",
		"", sum("awc_cache_entries", "cache=page"), sum("awc_cache_bytes", "cache=page"),
		sum("awc_cluster_peers", "state=healthy"), sum("awc_cluster_peers", "state=suspect"),
		sum("awc_cluster_peers", "state=down"), sum("awc_cluster_gap_flushes_total"))
	return nil
}

// fetchResult is one response's cache attribution: the outcome header, the
// body size, and — on fragment-assembled pages — the server-reported
// cache-served byte count.
type fetchResult struct {
	outcome string
	bytes   int64
	// cached is the X-Autowebcache-Cached-Bytes value; -1 when the header
	// was absent (whole-page responses don't send it).
	cached int64
}

// cachedBytes resolves the cache-served byte count: fragment pages report
// it explicitly; whole-page responses imply all-or-nothing from the outcome.
func (f fetchResult) cachedBytes() int64 {
	if f.cached >= 0 {
		return f.cached
	}
	switch f.outcome {
	case "hit", "semantic-hit", "remote-hit", "coalesced":
		return f.bytes
	case "not-modified":
		// Zero body bytes moved, but the revalidation was answered from the
		// cache; nothing to attribute either way.
		return 0
	}
	return 0
}

func fetch(ctx context.Context, client *http.Client, url string) (fetchResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fetchResult{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return fetchResult{}, err
	}
	defer resp.Body.Close()
	n, _ := io.Copy(io.Discard, resp.Body)
	// 304 Not Modified is a successful zero-body answer (an ETag
	// revalidation served straight from the cache), not an error.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified {
		return fetchResult{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	res := fetchResult{outcome: resp.Header.Get("X-Autowebcache"), bytes: n, cached: -1}
	if v := resp.Header.Get("X-Autowebcache-Cached-Bytes"); v != "" {
		if c, perr := strconv.ParseInt(v, 10, 64); perr == nil {
			res.cached = c
		}
	}
	return res, nil
}

// localHits counts the requests the local cache served without running the
// handler — the outcomes the server counts as Hits or SemanticHits. With
// remote-hit they make up the hit rate, as in the server's HitRate.
func (s *outcomeStats) localHits() int {
	return s.outcomes["hit"] + s.outcomes["semantic-hit"] + s.outcomes["coalesced"] + s.outcomes["not-modified"]
}

func report(out io.Writer, stats map[string]*outcomeStats) {
	names := make([]string, 0, len(stats))
	totalReq := 0
	var totalDur time.Duration
	hits := 0
	var bytesOut, bytesCached int64
	for name, s := range stats {
		names = append(names, name)
		totalReq += s.count
		totalDur += s.total
		hits += s.localHits() + s.outcomes["remote-hit"]
		bytesOut += s.bytesOut
		bytesCached += s.bytesCached
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-26s %8s %12s %6s %6s %6s %6s %6s %6s %6s\n",
		"interaction", "requests", "mean", "hit", "remote", "frag", "asm", "miss", "write", "errs")
	for _, name := range names {
		s := stats[name]
		mean := time.Duration(0)
		if s.count > 0 {
			mean = s.total / time.Duration(s.count)
		}
		fmt.Fprintf(out, "%-26s %8d %12v %6d %6d %6d %6d %6d %6d %6d\n",
			name, s.count, mean.Round(time.Microsecond),
			s.localHits(), s.outcomes["remote-hit"],
			s.outcomes["fragment-hit"], s.outcomes["assembled"],
			s.outcomes["miss"], s.outcomes["write"], s.errors)
	}
	if totalReq > 0 {
		fmt.Fprintf(out, "\ntotal %d requests, mean %v, hit rate %.1f%%",
			totalReq, (totalDur / time.Duration(totalReq)).Round(time.Microsecond),
			100*float64(hits)/float64(totalReq))
		if bytesOut > 0 {
			fmt.Fprintf(out, ", cache-served bytes %.1f%%", 100*float64(bytesCached)/float64(bytesOut))
		}
		fmt.Fprintln(out)
	}
}
