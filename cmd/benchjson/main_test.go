package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autowebcache/internal/bench"
)

// TestCommittedRecordsParse reads every committed BENCH_*.json: the
// micro-benchmark arrays `make bench` writes and the end-to-end records
// -e2e writes.
func TestCommittedRecordsParse(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed records found: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.HasPrefix(bytes.TrimSpace(data), []byte("[")) {
			recs, err := bench.ReadHitPathJSON(path)
			if err != nil || len(recs) == 0 {
				t.Errorf("%s: %d micro records, %v", path, len(recs), err)
			}
			continue
		}
		var rec e2eRecord
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rec); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if rec.Fingerprint.NumCPU == 0 || rec.Fingerprint.GoVersion == "" || len(rec.EndToEnd) == 0 {
			t.Errorf("%s: record lacks a fingerprint or end-to-end metrics: %+v", path, rec.Fingerprint)
		}
		for w, metrics := range rec.EndToEnd {
			for name, m := range metrics {
				for _, s := range []summary{m.Parent, m.Change} {
					if s.N == 0 || s.Q1 > s.Median || s.Median > s.Q3 {
						t.Errorf("%s: %s %s: summary %+v", path, w, name, s)
					}
				}
				if m.Won+m.Lost > m.Pairs || m.Pairs > min(m.Parent.N, m.Change.N) {
					t.Errorf("%s: %s %s: won %d lost %d of %d pairs", path, w, name, m.Won, m.Lost, m.Pairs)
				}
			}
		}
	}
}

// TestFoldE2E folds a small pairs file: pairs match by seed, wins follow
// each metric's direction, incorrect runs are left out, and a second box
// fingerprint is refused.
func TestFoldE2E(t *testing.T) {
	header := `{"header":{"nproc":2,"go_version":"go1.24.0","kernel":"k","parent_commit":"p","change_commit":"c"}}`
	run := func(side string, seed int, correct bool, cpu, rps float64) string {
		b, _ := json.Marshal(map[string]any{"side": side, "workload": "w", "seed": seed, "result": map[string]any{
			"correct": correct,
			"metrics": map[string]any{"cpu_us_per_req": map[string]any{"value": cpu, "unit": "us"}, "throughput_rps": map[string]any{"value": rps, "unit": "1/s"}},
		}})
		return string(b)
	}
	lines := []string{header,
		run("parent", 1, true, 30, 100), run("change", 1, true, 20, 120),
		run("change", 2, true, 21, 90), run("parent", 2, true, 31, 100),
		run("parent", 3, true, 29, 100), run("change", 3, false, 1, 1000),
	}
	rec, err := foldE2E(strings.NewReader(strings.Join(lines, "\n")), "../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	cpu, rps := rec.EndToEnd["w"]["cpu_us_per_req"], rec.EndToEnd["w"]["throughput_rps"]
	if cpu.Pairs != 2 || cpu.Won != 2 || cpu.Lost != 0 || cpu.Parent.N != 3 || cpu.Change.N != 2 || cpu.Parent.Median != 30 {
		t.Errorf("cpu_us_per_req: %+v", cpu)
	}
	if rps.Won != 1 || rps.Lost != 1 {
		t.Errorf("throughput_rps: %+v", rps)
	}
	other := strings.Replace(header, `"nproc":2`, `"nproc":8`, 1)
	if _, err := foldE2E(strings.NewReader(header+"\n"+other), "../../BENCHMARK.json"); err == nil {
		t.Error("a pairs file from two boxes was folded")
	}
}
