package awcbench

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"
)

const repoRoot = ".."

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestSpecMatchesCode(t *testing.T) {
	spec, err := LoadSpec(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	workloads := Workloads()
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(spec.Workloads), len(workloads))
	}
	for i, ws := range spec.Workloads {
		check(ws.Name)
		if ws.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, ws.Name, workloads[i].Name)
		}
		if len(ws.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, over 200", ws.Name, len(ws.Why))
		}
	}
	var setup bool
	for _, m := range spec.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
		if unit, ok := LayerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per_layer %s (%s): the code declares unit %q, declared=%t", m.Name, m.Unit, unit, ok)
		}
	}
	if len(spec.PerLayer) != len(LayerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the code declares %d", len(spec.PerLayer), len(LayerUnits))
	}
}

// TestQuickRunEmitsTheSpec runs every workload at smoke-test size in both
// modes against a freshly built server and requires the emitted metric names
// to be exactly the ones BENCHMARK.json lists, every operation to succeed,
// and the workloads to stress the layers they claim to.
func TestQuickRunEmitsTheSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers")
	}
	spec, err := LoadSpec(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	env := Env{ServerBin: filepath.Join(dir, "rubis-server"), WorkDir: dir, OutDir: filepath.Join(dir, "out")}
	build := exec.Command("go", "build", "-o", env.ServerBin, "./cmd/rubis-server")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build rubis-server: %v\n%s", err, out)
	}
	names := func(ms []MetricSpec) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	opts := RunOpts{Seed: 1, Measure: Limit{Requests: 2000}, Setups: 1, Quick: true}
	layer := map[string]map[string]float64{}
	for _, w := range Workloads() {
		for _, mode := range []struct {
			name string
			run  RunFunc
			want []string
		}{
			{"e2e", RunE2E, names(spec.EndToEnd)},
			{"trace", RunTrace, names(spec.PerLayer)},
		} {
			t.Run(w.Name+"/"+mode.name, func(t *testing.T) {
				res, err := mode.run(context.Background(), env, w, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 2000 {
					t.Errorf("correct=%t attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
				}
				var got []string
				for name, m := range res.Metrics {
					got = append(got, name)
					if mode.name == "e2e" && !(m.Value > 0) {
						t.Errorf("%s = %v; end-to-end metrics are never 0", name, m.Value)
					}
					if mode.name == "trace" {
						if layer[w.Name] == nil {
							layer[w.Name] = map[string]float64{}
						}
						layer[w.Name][name] = m.Value
					}
				}
				sort.Strings(got)
				if !slices.Equal(got, mode.want) {
					t.Fatalf("emitted %v\nwant    %v", got, mode.want)
				}
				if mode.name == "trace" {
					if _, err := os.Stat(filepath.Join(env.OutDir, "trace-"+w.Name+".json")); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
	// A workload that claims to bypass a layer must leave its counters at 0,
	// and the one that claims to stress it must not.
	for _, tc := range []struct {
		metric   string
		stressed string
	}{
		{"cache.l2.put_us", "bid-tiered"},
		{"cache.l2.journal_syncs_per_write", "bid-tiered"},
		{"cache.evictions_per_insert", "bid-tiered"},
		{"cluster.broadcast_us", "bid-cluster3"},
		{"cluster.offers_per_miss", "bid-cluster3"},
	} {
		for wname, ms := range layer {
			if v := ms[tc.metric]; (v != 0) != (wname == tc.stressed) {
				t.Errorf("%s on %s = %v; only %s should move it", tc.metric, wname, v, tc.stressed)
			}
		}
	}
}
