package awcbench

import (
	"math"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		n         int
		p         float64
		want      float64
		supported bool
	}{
		{1000, 99, 990, true},  // exactly 10 samples beyond
		{999, 99, 990, false},  // 9 beyond
		{100, 90, 90, true},    // 10 beyond
		{100, 99, 99, false},   // 1 beyond
		{20, 50, 10, true},     // 10 beyond the median
		{19, 50, 10, false},    // 9 beyond
		{2000, 99, 1980, true}, // 20 beyond
	} {
		got, ok := Percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.supported {
			t.Errorf("Percentile(1..%d, %g) = %g, %t; want %g, %t", tc.n, tc.p, got, ok, tc.want, tc.supported)
		}
	}
	if _, ok := Percentile(nil, 50); ok {
		t.Error("an empty sample supports no percentile")
	}
}

// TestQuartilesMatchPython pins Quartiles to statistics.quantiles(v, n=4),
// the function the benchmark contract measures spread with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{3, 9, 4}, 3, 4, 9},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := Quartiles(tc.vs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(m-tc.m) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("Quartiles(%v) = %g %g %g, want %g %g %g", tc.vs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}
