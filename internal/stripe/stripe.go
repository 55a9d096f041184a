// Package stripe holds the page cache's lock-striping helpers: a shard-count
// rounder and the key hash.
package stripe

import "runtime"

// MaxShards caps the stripe count; beyond this the per-shard maps stop
// paying for themselves.
const MaxShards = 256

// Count rounds requested up to a power of two in [1, MaxShards]; 0 picks
// GOMAXPROCS rounded likewise, so caches built at server start get one
// stripe per P.
func Count(requested int) int {
	n := requested
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := 1
	for p < n && p < MaxShards {
		p <<= 1
	}
	return p
}

// Hash is FNV-1a over s, inlined so hot paths allocate nothing.
func Hash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
