package bench

import (
	"os"
	"path/filepath"
	"testing"
)

func rec(name string, ns float64, allocs int64) HitPathRecord {
	return HitPathRecord{Name: name, NsPerOp: ns, AllocsPerOp: allocs}
}

func TestGatePasses(t *testing.T) {
	base := []HitPathRecord{rec("page-hit", 100, 0), rec("page-miss-insert", 300, 5)}
	fresh := []HitPathRecord{rec("page-hit", 120, 0), rec("page-miss-insert", 290, 5)}
	results, ok := Gate(fresh, base, 0.25)
	if !ok {
		t.Fatalf("gate failed: %+v", results)
	}
	if len(results) != 2 {
		t.Fatalf("results: %+v", results)
	}
	for _, r := range results {
		if r.Failed || r.Missing {
			t.Fatalf("unexpected flag on %+v", r)
		}
	}
}

func TestGateFailsOnNsRegression(t *testing.T) {
	base := []HitPathRecord{rec("page-hit", 100, 0)}
	fresh := []HitPathRecord{rec("page-hit", 126, 0)} // 1.26x > 1.25x
	results, ok := Gate(fresh, base, 0.25)
	if ok || !results[0].Failed {
		t.Fatalf("26%% regression passed the 25%% gate: %+v", results)
	}
	// Exactly at the boundary passes (the gate is strict-greater).
	fresh[0].NsPerOp = 125
	if _, ok := Gate(fresh, base, 0.25); !ok {
		t.Fatal("boundary regression failed the gate")
	}
}

func TestGateFailsOnAnyAllocIncrease(t *testing.T) {
	base := []HitPathRecord{rec("page-hit", 100, 0)}
	fresh := []HitPathRecord{rec("page-hit", 90, 1)} // faster but allocates
	results, ok := Gate(fresh, base, 0.25)
	if ok || !results[0].Failed {
		t.Fatalf("alloc increase passed the gate: %+v", results)
	}
	if _, ok := Gate([]HitPathRecord{rec("page-hit", 100, 0)},
		[]HitPathRecord{rec("page-hit", 100, 3)}, 0.25); !ok {
		t.Fatal("alloc decrease must pass")
	}
}

func TestGateMissingRecordsInformButNeverFail(t *testing.T) {
	base := []HitPathRecord{rec("page-hit", 100, 0), rec("retired", 50, 1)}
	fresh := []HitPathRecord{rec("page-hit", 100, 0), rec("brand-new", 10, 0)}
	results, ok := Gate(fresh, base, 0.25)
	if !ok {
		t.Fatalf("missing records failed the gate: %+v", results)
	}
	missing := 0
	for _, r := range results {
		if r.Missing {
			missing++
			if r.Failed {
				t.Fatalf("missing record marked failed: %+v", r)
			}
		}
	}
	if missing != 2 {
		t.Fatalf("missing = %d, want 2: %+v", missing, results)
	}
}

func TestGateDefaultThreshold(t *testing.T) {
	base := []HitPathRecord{rec("page-hit", 100, 0)}
	if _, ok := Gate([]HitPathRecord{rec("page-hit", 124, 0)}, base, -1); !ok {
		t.Fatal("24% regression failed the default 25% gate")
	}
	if _, ok := Gate([]HitPathRecord{rec("page-hit", 130, 0)}, base, -1); ok {
		t.Fatal("30% regression passed the default 25% gate")
	}
}

func TestReadHitPathJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(path,
		[]byte(`[{"name":"page-hit","ns_per_op":112.5,"allocs_per_op":0,"bytes_per_op":0,"ops":1}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadHitPathJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Name != "page-hit" || recs[0].NsPerOp != 112.5 {
		t.Fatalf("recs: %+v", recs)
	}
	if _, err := ReadHitPathJSON(filepath.Join(dir, "nope.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHitPathJSON(path); err == nil {
		t.Fatal("expected error for malformed JSON")
	}
}
