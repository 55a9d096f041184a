package awcbench

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported: with fewer, the value is one or two requests' luck.
const minBeyond = 10

// Percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank method, and whether at least minBeyond samples lie beyond
// it. sorted must be ascending.
func Percentile(sorted []float64, p float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// Median returns the median of vs (0 for an empty slice). vs is not
// modified.
func Median(vs []float64) float64 {
	_, m, _ := Quartiles(vs)
	return m
}

// Quartiles returns the first quartile, median and third quartile of vs by
// the method of Python's statistics.quantiles(vs, n=4) (exclusive), which
// is how the benchmark contract measures spread. Fewer than two values
// collapse to the single value.
func Quartiles(vs []float64) (q1, med, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// Position k*(n+1)/4 on a 1-based axis; like Python, the index is
		// clamped to the data and the interpolation weight is taken after
		// clamping, so tiny samples extrapolate.
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
