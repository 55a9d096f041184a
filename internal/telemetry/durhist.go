package telemetry

import (
	"sync/atomic"
	"time"
)

// durationBoundsNs are the fixed upper bounds, in integer nanoseconds, of
// every DurationHist. They span the latencies this system actually
// produces: a governed page hit is hundreds of nanoseconds, a local miss
// regenerating through sqlite is tens of microseconds to milliseconds, and
// a peer fetch across a degraded link can take the breaker timeout
// (seconds). Integer bounds keep Observe free of float work.
var durationBoundsNs = [...]int64{
	250,           // 250ns — governed page hit
	1_000,         // 1µs
	4_000,         // 4µs
	16_000,        // 16µs
	64_000,        // 64µs
	250_000,       // 250µs
	1_000_000,     // 1ms
	4_000_000,     // 4ms
	16_000_000,    // 16ms
	64_000_000,    // 64ms
	250_000_000,   // 250ms
	1_000_000_000, // 1s
	4_000_000_000, // 4s — breaker/peer timeout territory
}

// durationBoundsSec is durationBoundsNs in seconds, for snapshots.
var durationBoundsSec = func() []float64 {
	out := make([]float64, len(durationBoundsNs))
	for i, ns := range durationBoundsNs {
		out[i] = float64(ns) / 1e9
	}
	return out
}()

// DurationBucketCount is the number of explicit (non-+Inf) buckets in a
// DurationHist.
const DurationBucketCount = len(durationBoundsNs)

// DurationHist is the hot-path latency histogram: fixed bounds, a fixed
// array of atomic buckets, integer-only arithmetic. Observe performs zero
// allocations — it is embedded by value inside the per-handler stats
// counters on the governed page-hit path, which carries an AllocsPerRun==0
// guard. Its bucket counts and sum are a complete record of what it
// observed: the weave derives its per-outcome request counts and times from
// them rather than keep counters beside it. Its owner exports it through a
// collector (Gatherer.Histo of Snapshot).
//
// The zero value is ready to use.
type DurationHist struct {
	buckets [DurationBucketCount + 1]atomic.Uint64
	sumNs   atomic.Int64
}

// Observe records one duration. Allocation-free; safe for concurrent use.
func (h *DurationHist) Observe(d time.Duration) {
	ns := int64(d)
	i := 0
	for i < DurationBucketCount && ns > durationBoundsNs[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNs.Add(ns)
}

// Empty reports whether the histogram has recorded nothing. Runs off the
// hot path (at scrape time), so it reads the buckets rather than make every
// Observe maintain a separate count.
func (h *DurationHist) Empty() bool {
	for i := range h.buckets {
		if h.buckets[i].Load() != 0 {
			return false
		}
	}
	return true
}

// Snapshot returns the histogram's state with bounds converted to seconds,
// ready for Gatherer.Histo. Runs off the hot path; it allocates.
func (h *DurationHist) Snapshot() HistSnapshot {
	s := HistSnapshot{Bounds: durationBoundsSec, Buckets: make([]uint64, len(h.buckets))}
	// Count is the sum of the buckets just read, never a separately loaded
	// counter: an Observe landing between two loads would otherwise render a
	// +Inf bucket below the last finite one.
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.Sum = float64(h.sumNs.Load()) / 1e9
	return s
}
