package awcbench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Spec is the part of BENCHMARK.json the benchmark itself reads.
type Spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// MetricSpec declares one metric. Bound is the share of the median by which
// an end-to-end metric may worsen; per-layer metrics have none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json from the repository root.
func LoadSpec(root string) (*Spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// Header records where a set of runs was measured.
type Header struct {
	Time       string `json:"time"`
	Seed       int64  `json:"seed"`
	Repeats    int    `json:"repeats"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Clients    int    `json:"clients"`
	// Network says what the requests crossed: always the host's loopback
	// interface, never a link.
	Network string `json:"network"`
	// FsyncUS is the median latency of a 4 KiB write + fsync in the run
	// directory: the sandbox filesystem's, not a production disk's. FSType
	// is that filesystem's statfs magic number.
	FsyncUS float64 `json:"fsync_us"`
	FSType  string  `json:"fs_type"`
}

// NewHeader probes the environment.
func NewHeader(env Env, seed int64, repeats int) Header {
	h := Header{
		Time: time.Now().UTC().Format(time.RFC3339), Seed: seed, Repeats: repeats,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Clients: Clients, Network: "loopback (not a link)",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(env.WorkDir, &st); err == nil {
		h.FSType = fmt.Sprintf("%#x", st.Type)
	}
	h.FsyncUS = probeFsync(env.WorkDir)
	return h
}

// probeFsync times a small write+fsync in dir (0 when it cannot).
func probeFsync(dir string) float64 {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var us []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		us = append(us, micros(time.Since(t0)))
	}
	return Median(us)
}

// Summary is one metric of one workload over the repeats.
type Summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	// Unresolved marks an end-to-end metric whose inter-quartile spread
	// exceeds its bound: a difference within the bound cannot be told from
	// noise, so it must not be read as "unchanged".
	Unresolved bool `json:"unresolved,omitempty"`
}

// Spread is the inter-quartile distance as a share of the median.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// SuiteResult is a full set of runs: every workload, R repeats each.
type SuiteResult struct {
	Header    Header                        `json:"header"`
	Correct   bool                          `json:"correct"`
	Attempted int                           `json:"attempted"`
	Failed    int                           `json:"failed"`
	Workloads map[string]map[string]Summary `json:"workloads"`
}

// RunFunc is one run of one workload: RunE2E or RunTrace.
type RunFunc func(ctx context.Context, env Env, w *Workload, opts RunOpts) (*Result, error)

// RunSuite runs every workload `repeats` times — repeat r with seed+r on a
// freshly booted deployment, workloads interleaved round-robin so slow
// drift of the machine lands on all of them alike — and summarises each
// metric by the median and quartiles of its per-repeat values.
func RunSuite(ctx context.Context, env Env, spec *Spec, workloads []*Workload, run RunFunc, opts RunOpts, repeats int, log io.Writer) (*SuiteResult, error) {
	bounds := make(map[string]float64)
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	out := &SuiteResult{Header: NewHeader(env, opts.Seed, repeats), Correct: true, Workloads: make(map[string]map[string]Summary)}
	values := make(map[string]map[string][]float64)
	units := make(map[string]string)
	for r := 0; r < repeats; r++ {
		for _, w := range workloads {
			o := opts
			o.Seed = opts.Seed + int64(r)
			res, err := run(ctx, env, w, o)
			if err != nil {
				return nil, fmt.Errorf("%s repeat %d: %w", w.Name, r, err)
			}
			fmt.Fprintf(log, "%s repeat %d/%d (seed %d): correct=%t attempted=%d failed=%d\n",
				w.Name, r+1, repeats, o.Seed, res.Correct, res.Attempted, res.Failed)
			for _, n := range res.Notes {
				fmt.Fprintf(log, "  %s\n", n)
			}
			out.Correct = out.Correct && res.Correct
			out.Attempted += res.Attempted
			out.Failed += res.Failed
			if values[w.Name] == nil {
				values[w.Name] = make(map[string][]float64)
			}
			for name, m := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], m.Value)
				units[name] = m.Unit
			}
		}
	}
	for wname, metrics := range values {
		out.Workloads[wname] = make(map[string]Summary)
		for name, vs := range metrics {
			q1, med, q3 := Quartiles(vs)
			s := Summary{Unit: units[name], Median: med, Q1: q1, Q3: q3, N: len(vs)}
			if bound, ok := bounds[name]; ok && s.Spread() > bound {
				s.Unresolved = true
			}
			out.Workloads[wname][name] = s
		}
	}
	return out, nil
}

// Print writes every metric by name with its unit, median, quartiles and
// sample count, workloads and metrics in BENCHMARK.json's order.
func (s *SuiteResult) Print(w io.Writer, spec *Spec) {
	h := s.Header
	fmt.Fprintf(w, "seed %d, %d repeats, %d clients, nproc %d, GOMAXPROCS %d, %s, kernel %s, %s, fsync %.0f us on fs %s\n",
		h.Seed, h.Repeats, h.Clients, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.Network, h.FsyncUS, h.FSType)
	for _, ws := range spec.Workloads {
		metrics, ok := s.Workloads[ws.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n%s\n", ws.Name)
		for _, m := range append(append([]MetricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
			sum, ok := metrics[m.Name]
			if !ok {
				continue
			}
			mark := ""
			if sum.Unresolved {
				mark = fmt.Sprintf("  unresolved: spread %.1f%% > bound %.0f%%", 100*sum.Spread(), 100*m.Bound)
			}
			fmt.Fprintf(w, "  %-36s %14.4f %-6s q1 %.4f q3 %.4f n %d%s\n", m.Name, sum.Median, sum.Unit, sum.Q1, sum.Q3, sum.N, mark)
		}
	}
	fmt.Fprintf(w, "\ncorrect=%t attempted=%d failed=%d\n", s.Correct, s.Attempted, s.Failed)
}

// WriteFile writes the results as indented JSON.
func (s *SuiteResult) WriteFile(path string) error {
	return writeJSON(path, s)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Disagreements lists every end-to-end metric whose medians in two sets of
// runs differ by more than its bound — the noise guard behind -selfcheck,
// where a and b are measured back to back on the same commit.
func Disagreements(spec *Spec, a, b *SuiteResult) []string {
	var out []string
	for wname, metrics := range a.Workloads {
		for _, m := range spec.EndToEnd {
			x, y := metrics[m.Name].Median, b.Workloads[wname][m.Name].Median
			if x == 0 {
				continue
			}
			if diff := math.Abs(y-x) / x; diff > m.Bound {
				out = append(out, fmt.Sprintf("%s %s: %.4f then %.4f %s, %.1f%% apart, bound %.0f%%",
					wname, m.Name, x, y, m.Unit, 100*diff, 100*m.Bound))
			}
		}
	}
	sort.Strings(out)
	return out
}
