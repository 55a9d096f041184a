package awcbench

import "testing"

// goldenStreams pins each workload's request stream for seed 1: a changed
// hash means every committed baseline was measured on different inputs.
var goldenStreams = map[string]string{
	"browse-warm":  "b3c01dbec7ca462e",
	"bid-mix":      "9b78f88a05ae52fe",
	"bid-tiered":   "9b78f88a05ae52fe",
	"bid-cluster3": "9b78f88a05ae52fe",
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range Workloads() {
		one := StreamHash(w, 1, 2000)
		if again := StreamHash(w, 1, 2000); again != one {
			t.Errorf("%s: seed 1 gave %s then %s", w.Name, one, again)
		}
		if two := StreamHash(w, 2, 2000); two == one {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.Name)
		}
		if want := goldenStreams[w.Name]; one != want {
			t.Errorf("%s: stream hash %s, golden %s", w.Name, one, want)
		}
	}
}

func TestBrowseWarmStaysAHitPathMix(t *testing.T) {
	w, err := WorkloadByName("browse-warm")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(w, 1, 0)
	var writes, gzip, conditional int
	const n = 20000
	for i := 0; i < n; i++ {
		r := s.Next()
		if r.Write {
			writes++
			if r.Name != "StoreComment" {
				t.Fatalf("browse-warm drew write %s", r.Name)
			}
		}
		if r.Gzip {
			gzip++
		}
		if r.Conditional {
			conditional++
		}
	}
	for _, c := range []struct {
		what   string
		got    int
		lo, hi float64
	}{
		{"writes", writes, 0.012, 0.023}, {"gzip", gzip, 0.78, 0.82}, {"conditional", conditional, 0.31, 0.36},
	} {
		if share := float64(c.got) / n; share < c.lo || share > c.hi {
			t.Errorf("%s share %.4f outside [%g, %g]", c.what, share, c.lo, c.hi)
		}
	}
}
