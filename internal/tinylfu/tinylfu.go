// Package tinylfu implements the W-TinyLFU admission policy's frequency
// machinery (Einziger, Friedman, Manes — "TinyLFU: A Highly Efficient Cache
// Admission Policy"): a 4-bit count-min sketch with periodic halving (the
// "aging" that turns raw counts into a recency-weighted frequency estimate)
// fronted by a doorkeeper bloom filter that absorbs one-hit wonders before
// they occupy sketch counters.
//
// The page cache consults it under byte-budget pressure:
// a candidate entry is admitted — evicting the replacement policy's victim —
// only when its estimated frequency beats the victim's, so a churn of
// never-again-requested pages (a crawler, a load generator's long tail)
// cannot displace the hot working set.
//
// Every operation is alloc-free and safe for concurrent use: counters are
// packed sixteen-per-uint64 and updated with CAS, the doorkeeper's bits with
// atomic Or. The periodic halving runs under a mutex while readers continue
// concurrently — frequency estimates are heuristics and tolerate the skew.
package tinylfu

import (
	"sync"
	"sync/atomic"
)

// depth is the number of count-min rows; 4 is the standard depth giving a
// collision-overestimate probability small enough for admission decisions.
const depth = 4

// maxCount is the 4-bit counter saturation value.
const maxCount = 15

// sampleFactor scales the halving period: after sampleFactor × counters
// increments the whole sketch is halved, so counts decay with a half-life of
// one sample window and stale popularity cannot pin the cache forever.
const sampleFactor = 8

// Filter is the admission filter: doorkeeper bloom + 4-bit count-min sketch.
type Filter struct {
	mask uint64 // counters per row - 1 (power of two)

	// rows holds depth rows of 4-bit counters, 16 per uint64 word.
	rows [depth][]uint64

	// door is the doorkeeper bloom filter (one bit per position, two
	// positions per key). A key's first occurrence in a sample window only
	// sets doorkeeper bits; from the second on it increments the sketch.
	door []uint64

	// samples counts increments since the last halving.
	samples atomic.Uint64
	limit   uint64

	resetMu sync.Mutex
}

// New creates a filter sized for roughly `counters` tracked keys (rounded up
// to a power of two, minimum 1024). Size it to the number of entries the
// governed cache can plausibly hold — e.g. MaxBytes divided by a typical
// entry cost.
func New(counters int) *Filter {
	n := 1024
	for n < counters && n < 1<<28 {
		n <<= 1
	}
	f := &Filter{mask: uint64(n - 1), limit: uint64(n) * sampleFactor}
	for i := range f.rows {
		f.rows[i] = make([]uint64, n/16)
	}
	f.door = make([]uint64, n/64)
	return f
}

// spread derives the i-th row's position from one 64-bit key hash. The odd
// multipliers re-mix the hash per row so the rows' collision sets are
// independent.
var seeds = [depth]uint64{
	0x9e3779b97f4a7c15, 0xc2b2ae3d27d4eb4f, 0x165667b19e3779f9, 0x27d4eb2f165667c5,
}

func (f *Filter) pos(h uint64, i int) uint64 {
	x := h * seeds[i]
	x ^= x >> 32
	return x & f.mask
}

// get reads the 4-bit counter at position p of row i.
func (f *Filter) get(i int, p uint64) uint64 {
	word := atomic.LoadUint64(&f.rows[i][p/16])
	return (word >> ((p % 16) * 4)) & 0xf
}

// inc increments the 4-bit counter at position p of row i, saturating at 15.
func (f *Filter) inc(i int, p uint64) {
	addr := &f.rows[i][p/16]
	shift := (p % 16) * 4
	for {
		old := atomic.LoadUint64(addr)
		if (old>>shift)&0xf >= maxCount {
			return
		}
		if atomic.CompareAndSwapUint64(addr, old, old+1<<shift) {
			return
		}
	}
}

// doorbit computes the doorkeeper bit positions for h.
func (f *Filter) doorbit(h uint64, i int) (word, bit uint64) {
	p := f.pos(h, i)
	return p / 64, uint64(1) << (p % 64)
}

// inDoor reports whether h's doorkeeper bits are all set.
func (f *Filter) inDoor(h uint64) bool {
	for i := 0; i < 2; i++ {
		w, b := f.doorbit(h, i)
		if atomic.LoadUint64(&f.door[w])&b == 0 {
			return false
		}
	}
	return true
}

// setDoor sets h's doorkeeper bits, reporting whether they were already set.
// (Spelled as Load + CAS rather than atomic.OrUint64: go1.24.0 miscompiles
// the Or intrinsic on amd64 when its return value is consumed.)
func (f *Filter) setDoor(h uint64) bool {
	present := true
	for i := 0; i < 2; i++ {
		w, b := f.doorbit(h, i)
		for {
			old := atomic.LoadUint64(&f.door[w])
			if old&b != 0 {
				break
			}
			present = false
			if atomic.CompareAndSwapUint64(&f.door[w], old, old|b) {
				break
			}
		}
	}
	return present
}

// Touch records one access of the key hashed to h. The first access in a
// sample window only marks the doorkeeper; subsequent ones increment the
// sketch. Touch is alloc-free: call it on every cache lookup.
//
// Every access counts toward the sample window, doorkeeper-absorbed ones
// included — a stream of mostly-unique keys (the one-hit churn the filter
// exists for) must still age the sketch and clear the doorkeeper on
// schedule, or the doorkeeper would saturate and inflate every estimate.
func (f *Filter) Touch(h uint64) {
	if f.samples.Add(1) >= f.limit {
		f.reset()
	}
	if !f.setDoor(h) {
		return
	}
	for i := 0; i < depth; i++ {
		f.inc(i, f.pos(h, i))
	}
}

// Estimate returns the recency-weighted frequency estimate for h: the
// count-min minimum, plus one when the doorkeeper holds the key.
func (f *Filter) Estimate(h uint64) uint64 {
	min := uint64(maxCount + 1)
	for i := 0; i < depth; i++ {
		if c := f.get(i, f.pos(h, i)); c < min {
			min = c
		}
	}
	if f.inDoor(h) {
		min++
	}
	return min
}

// Admit decides whether a candidate should displace a victim under capacity
// pressure: true when the candidate's estimated frequency strictly beats the
// victim's. Ties keep the incumbent — the cheapest defence against hash
// flooding and one-hit churn.
func (f *Filter) Admit(candidate, victim uint64) bool {
	return f.Estimate(candidate) > f.Estimate(victim)
}

// reset halves every counter and clears the doorkeeper — the TinyLFU aging
// step. Concurrent Touch/Estimate calls proceed against the partially-halved
// sketch; the estimates stay within one halving of exact, which admission
// tolerates.
func (f *Filter) reset() {
	f.resetMu.Lock()
	defer f.resetMu.Unlock()
	if f.samples.Load() < f.limit {
		return // another goroutine reset while we waited
	}
	const halfMask = 0x7777777777777777 // clears each nibble's low bit before shifting
	for i := range f.rows {
		row := f.rows[i]
		for w := range row {
			for {
				old := atomic.LoadUint64(&row[w])
				if atomic.CompareAndSwapUint64(&row[w], old, (old>>1)&halfMask) {
					break
				}
			}
		}
	}
	for w := range f.door {
		atomic.StoreUint64(&f.door[w], 0)
	}
	f.samples.Store(0)
}

// HashString is the 64-bit FNV-1a hash the caches key the filter by,
// inlined so governed hit paths allocate nothing.
func HashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
