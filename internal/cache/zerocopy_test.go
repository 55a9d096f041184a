package cache

import (
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/memdb"
)

// TestZeroAllocHitPath guards the tentpole win: a page-cache hit must not
// allocate — the returned Page is a view of the stored entry, not a copy.
func TestZeroAllocHitPath(t *testing.T) {
	c := newTestCache(t, Options{})
	body := make([]byte, 4096)
	c.Insert("/page?x=1", body, "text/html", nil, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		pg, ok := c.Lookup("/page?x=1")
		if !ok || len(pg.Body) != len(body) {
			t.Fatal("unexpected miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("hit path allocates %.1f objects per lookup, want 0", allocs)
	}
}

// TestAliasingStressSharedViews proves the no-mutation contract under -race:
// concurrent readers hold returned views and re-checksum them while inserts,
// invalidations and evictions churn the cache. Every view must forever hash
// to the checksum of the body it was inserted with — a stored body is never
// rewritten in place, and a view outlives its entry's removal unchanged.
func TestAliasingStressSharedViews(t *testing.T) {
	e, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The budget holds roughly 40 of the 64 pages, so eviction churns too.
	const (
		readers  = 8
		keys     = 64
		iters    = 400
		maxBytes = 32 << 10
	)
	c, err := New(Options{Engine: e, Shards: 8, MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	// Each key's body encodes its key so its checksum is recomputable from
	// any version: body k = repeated "pageNN|" filled to 512+k bytes.
	mkBody := func(k int) []byte {
		b := make([]byte, 512+k)
		pat := fmt.Sprintf("page%02d|", k)
		for i := range b {
			b[i] = pat[i%len(pat)]
		}
		return b
	}
	sums := make([]uint32, keys)
	for k := 0; k < keys; k++ {
		sums[k] = crc32.ChecksumIEEE(mkBody(k))
	}
	keyOf := func(k int) string { return fmt.Sprintf("/page?x=%d", k) }

	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			type held struct {
				k    int
				view Page
			}
			var pinned []held // views held across churn, re-verified at the end
			for i := 0; i < iters; i++ {
				k := (g*17 + i) % keys
				key := keyOf(k)
				pg, ok := c.Lookup(key)
				if !ok {
					pg = c.Insert(key, mkBody(k), "text/html", []analysis.Query{
						{SQL: "SELECT a FROM items WHERE b = ?", Args: []memdb.Value{int64(k)}},
					}, 0)
				}
				if got := crc32.ChecksumIEEE(pg.Body); got != sums[k] {
					t.Errorf("key %d: view checksum %08x, want %08x", k, got, sums[k])
					return
				}
				if n := c.Bytes(); n > maxBytes {
					t.Errorf("capacity bound violated: observed %d bytes > MaxBytes %d", n, maxBytes)
					return
				}
				if i%37 == 0 {
					pinned = append(pinned, held{k: k, view: pg})
				}
				if i%53 == 0 {
					// Churn: invalidate the hot row so dependent pages vanish
					// while other goroutines may still hold their views.
					if _, err := c.InvalidateWrite(analysis.WriteCapture{Query: analysis.Query{
						SQL: "UPDATE items SET a = ? WHERE b = ?", Args: []memdb.Value{int64(i), int64(k)},
					}}); err != nil {
						t.Error(err)
						return
					}
				}
			}
			// Views held across invalidation and eviction churn must still
			// carry the exact bytes they were inserted with.
			for _, h := range pinned {
				if got := crc32.ChecksumIEEE(h.view.Body); got != sums[h.k] {
					t.Errorf("pinned key %d: checksum %08x, want %08x", h.k, got, sums[h.k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Snapshot(); st.Evictions == 0 {
		t.Fatal("no evictions; churn did not exercise the bound")
	}
}
