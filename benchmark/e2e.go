package awcbench

import (
	"context"
	"fmt"
	"sort"
	"time"

	"autowebcache/internal/weave"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one benchmark run in the shape the benchmark contract
// prescribes for the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Notes are diagnostics for the human-readable report: failures,
	// percentiles reported on too few samples, the generator's own cost.
	Notes []string `json:"-"`
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// count folds a phase's attempts and failures into the result.
func (r *Result) count(l *Load) {
	r.Attempted += l.Attempted
	r.Failed += l.Failed
	for _, e := range l.Errors {
		r.note("FAILED %s", e)
	}
}

// Env locates what a run needs on disk.
type Env struct {
	// ServerBin is the built cmd/rubis-server.
	ServerBin string
	// WorkDir holds the per-run private directories (sqlite file, L2).
	WorkDir string
	// OutDir receives trace and results files.
	OutDir string
}

// RunOpts sizes one run.
type RunOpts struct {
	Seed int64
	// Measure bounds the measured phase.
	Measure Limit
	// Setups is how many times the deployment is set up from scratch; the
	// last one is measured and setup_s is the median over all of them.
	Setups int
	// Quick is the smoke-test size: a tenth of the warm-up and of the
	// traced run's segments.
	Quick bool
}

// scaled applies the run's size to one of the workload's request counts.
func (o RunOpts) scaled(n int) int {
	if o.Quick {
		return n / 10
	}
	return n
}

// setUp boots the workload's servers and warms them up. On success the
// caller owns the deployment and the generator.
func setUp(ctx context.Context, env Env, w *Workload, opts RunOpts, res *Result) (*Deployment, *Generator, error) {
	dep, err := Boot(ctx, env.ServerBin, w, env.WorkDir)
	if err != nil {
		return nil, nil, err
	}
	gen := NewGenerator(w, opts.Seed, dep.Targets(), Clients)
	res.count(gen.Run(ctx, Limit{Requests: opts.scaled(w.Warmup)}))
	if err := ctx.Err(); err != nil {
		gen.Close()
		dep.Stop()
		return nil, nil, err
	}
	return dep, gen, nil
}

// RunE2E measures the end-to-end metrics of one workload against freshly
// booted server processes, with tracing and scraping off.
func RunE2E(ctx context.Context, env Env, w *Workload, opts RunOpts) (*Result, error) {
	res := &Result{Metrics: make(map[string]Metric)}
	var (
		setups []float64
		dep    *Deployment
		gen    *Generator
	)
	for i := 0; i < opts.Setups; i++ {
		if dep != nil {
			gen.Close()
			if err := dep.Stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if dep, gen, err = setUp(ctx, env, w, opts, res); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer dep.Stop()
	defer gen.Close()

	cpu0, err := dep.CPU()
	if err != nil {
		return nil, err
	}
	load := gen.Run(ctx, opts.Measure)
	cpu1, err := dep.CPU()
	if err != nil {
		return nil, err
	}
	rss, err := dep.PeakRSSMiB()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.count(load)
	res.count(CheckReadYourWrite(ctx, dep.Targets(), opts.Seed))
	if w.Negotiate {
		res.count(CheckGzip(ctx, dep.Targets()[0], load.GzipPaths))
	}

	n := float64(len(load.Samples))
	if n == 0 {
		return nil, fmt.Errorf("%s: the measured phase completed no request", w.Name)
	}
	res.Metrics["setup_s"] = Metric{Median(setups), "s"}
	res.Metrics["throughput_rps"] = Metric{n / load.Wall.Seconds(), "1/s"}
	res.Metrics["cpu_us_per_req"] = Metric{micros(cpu1-cpu0) / n, "us"}
	res.Metrics["peak_rss_mb"] = Metric{rss, "MiB"}
	lat := splitLatencies(load.Samples)
	for _, p := range []struct {
		name string
		of   []float64
		pct  float64
	}{
		{"read_p50_us", lat.reads, 50}, {"read_p90_us", lat.reads, 90}, {"read_p99_us", lat.reads, 99},
		{"write_p50_us", lat.writes, 50}, {"write_p99_us", lat.writes, 99},
	} {
		v, ok := Percentile(p.of, p.pct)
		if !ok {
			res.note("%s rests on %d samples, fewer than %d beyond the percentile", p.name, len(p.of), minBeyond)
		}
		res.Metrics[p.name] = Metric{v, "us"}
	}
	var hits, bytes float64
	for _, s := range load.Samples {
		if hitOutcomes[s.Outcome] {
			hits++
		}
		bytes += float64(s.Bytes)
	}
	res.Metrics["hit_ratio"] = Metric{ratio(hits, float64(len(lat.reads))), "ratio"}
	res.Metrics["wire_bytes_per_req"] = Metric{bytes / n, "B"}
	res.note("error_ratio %g (%d failed of %d attempted)", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	res.note("generator: %d clients, %.1f us of its own CPU per request, %d measured requests in %.2f s",
		Clients, micros(load.GenCPU)/n, len(load.Samples), load.Wall.Seconds())
	res.Correct = res.Failed == 0
	return res, nil
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

type latencies struct {
	reads, writes []float64 // microseconds, ascending
	hits          []float64 // the reads answered "hit"
}

func splitLatencies(samples []Sample) latencies {
	var l latencies
	for _, s := range samples {
		us := float64(s.Nanos) / 1e3
		switch {
		case s.Write:
			l.writes = append(l.writes, us)
		default:
			l.reads = append(l.reads, us)
			if s.Outcome == string(weave.OutcomeHit) {
				l.hits = append(l.hits, us)
			}
		}
	}
	sort.Float64s(l.reads)
	sort.Float64s(l.writes)
	sort.Float64s(l.hits)
	return l
}
