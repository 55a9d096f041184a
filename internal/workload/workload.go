// Package workload is the closed-loop client emulator of the paper's §5:
// each emulated client runs sessions of think-time-separated requests drawn
// from a benchmark mix, with a warm-up phase before statistics are
// collected ("All our experiments warm the cache for 15 minutes before
// collecting statistics over the next 30 minutes" — durations are scaled
// down but the structure is identical).
package workload

import (
	"context"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"autowebcache/internal/weave"
)

// Source produces requests: both rubis.Mix and tpcw.Mix satisfy it.
type Source interface {
	// Request returns the next interaction name and target URL for the
	// given client.
	Request(rng *rand.Rand, client int) (name, target string)
}

// Config drives one emulation run.
type Config struct {
	// Clients is the number of concurrent emulated browsers.
	Clients int
	// ThinkTime is the mean think time between requests (exponentially
	// distributed, truncated at 5x, as the TPC-W spec prescribes). Zero
	// disables thinking.
	ThinkTime time.Duration
	// WarmupRequests and MeasureRequests bound the two phases by total
	// request count (deterministic; preferred in tests).
	WarmupRequests  int
	MeasureRequests int
	// Warmup and Measure bound the two phases by wall-clock duration, used
	// when the request counts are zero.
	Warmup  time.Duration
	Measure time.Duration
	// Seed makes the emulation reproducible.
	Seed int64
}

// Result summarises one run.
type Result struct {
	PerInteraction []weave.InteractionStats
	Totals         weave.InteractionStats
	Elapsed        time.Duration
	Requests       uint64
	// ThroughputRPS is measured requests per second of wall-clock time.
	ThroughputRPS float64
}

// nullWriter is the emulated browser's response sink: headers and status
// are retained (handlers need a live header map), the body is discarded.
type nullWriter struct {
	h      http.Header
	status int
}

func newNullWriter() *nullWriter { return &nullWriter{h: make(http.Header)} }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }

// Run drives the handler with the configured client population. stats must
// be the weave.Stats collector of the same woven application, so that the
// measurement phase can be isolated with Reset.
func Run(ctx context.Context, handler http.Handler, src Source, stats *weave.Stats, cfg Config) Result {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}

	runPhase(ctx, handler, src, cfg, phaseSpec{
		requests: cfg.WarmupRequests,
		duration: cfg.Warmup,
		seedBase: cfg.Seed,
	})
	stats.Reset()
	start := time.Now()
	n := runPhase(ctx, handler, src, cfg, phaseSpec{
		requests: cfg.MeasureRequests,
		duration: cfg.Measure,
		seedBase: cfg.Seed + 7919,
	})
	elapsed := time.Since(start)

	res := Result{
		PerInteraction: stats.Snapshot(),
		Totals:         stats.Totals(),
		Elapsed:        elapsed,
		Requests:       n,
	}
	if elapsed > 0 {
		res.ThroughputRPS = float64(n) / elapsed.Seconds()
	}
	return res
}

type phaseSpec struct {
	requests int
	duration time.Duration
	seedBase int64
}

// runPhase runs one phase to its request-count or duration bound and joins
// all client goroutines before returning.
func runPhase(ctx context.Context, handler http.Handler, src Source, cfg Config, spec phaseSpec) uint64 {
	if spec.requests <= 0 && spec.duration <= 0 {
		return 0
	}
	phaseCtx := ctx
	var cancel context.CancelFunc
	if spec.duration > 0 {
		phaseCtx, cancel = context.WithTimeout(ctx, spec.duration)
		defer cancel()
	}
	var issued atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(spec.seedBase + int64(client)*104729))
			for {
				if phaseCtx.Err() != nil {
					return
				}
				n := issued.Add(1)
				if spec.requests > 0 && n > uint64(spec.requests) {
					return
				}
				name, target := src.Request(rng, client)
				_ = name
				issue(phaseCtx, handler, target)
				think(phaseCtx, rng, cfg.ThinkTime)
			}
		}(c)
	}
	wg.Wait()
	n := issued.Load()
	if spec.requests > 0 && n > uint64(spec.requests) {
		n = uint64(spec.requests)
	}
	return n
}

// issue performs one in-process request.
func issue(ctx context.Context, handler http.Handler, target string) {
	u, err := url.Parse(target)
	if err != nil {
		return
	}
	req := &http.Request{
		Method:     http.MethodGet,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header),
		Host:       "emulator.local",
		RequestURI: target,
	}
	handler.ServeHTTP(newNullWriter(), req.WithContext(ctx))
}

// think sleeps for an exponentially distributed think time with the given
// mean, truncated at 5x (TPC-W v1.8 clause 5.3.1.1).
func think(ctx context.Context, rng *rand.Rand, mean time.Duration) {
	if mean <= 0 {
		return
	}
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d > 5*mean {
		d = 5 * mean
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
}
