package cache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/memdb"
)

// TestStressStrongConsistency drives parallel readers and a writer over
// overlapping keys in rounds. Within a round, readers hammer Lookup/Insert
// concurrently across every shard; between rounds the writer commits a new
// version and invalidates. The §3.2 strong-consistency invariant is checked
// after every InvalidateWrite returns: no page carrying a dependency the
// write intersects may survive, across all shards.
func TestStressStrongConsistency(t *testing.T) {
	e, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{Engine: e, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	const (
		readers = 8
		keys    = 64
		rounds  = 30
	)
	version := func(k int) string { return fmt.Sprintf("/page?item=%d", k) }
	for round := 0; round < rounds; round++ {
		body := []byte(fmt.Sprintf("v%d", round))
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					k := (g*13 + i) % keys
					key := version(k)
					if _, ok := c.Lookup(key); !ok {
						// The page depends on the row it was built from:
						// items with b = k (the shared hot template).
						c.Insert(key, body, "text/html", []analysis.Query{
							{SQL: "SELECT a FROM items WHERE b = ?", Args: []memdb.Value{int64(k)}},
						}, 0)
					}
				}
			}(g)
		}
		wg.Wait()
		// The writer updates one hot row; every page depending on it and
		// fully inserted before this call must be gone when it returns.
		hot := int64(round % keys)
		if _, err := c.InvalidateWrite(analysis.WriteCapture{Query: analysis.Query{
			SQL: "UPDATE items SET a = ? WHERE b = ?", Args: []memdb.Value{int64(round), hot},
		}}); err != nil {
			t.Fatal(err)
		}
		if c.Contains(version(int(hot))) {
			t.Fatalf("round %d: stale page for hot key %d survived a committed write", round, hot)
		}
	}
}

// TestStressBoundedCapacity hammers a bounded cache from parallel writers
// and asserts the Bytes <= MaxBytes invariant continuously while inserts,
// lookups, invalidations and evictions race across shards, with and without
// TinyLFU admission.
func TestStressBoundedCapacity(t *testing.T) {
	for _, admission := range []bool{false, true} {
		name := "SLRU"
		if admission {
			name = "SLRU+TinyLFU"
		}
		t.Run(name, func(t *testing.T) {
			e, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Roughly 40 of the 160 keys fit.
			const max = 12 << 10
			c, err := New(Options{Engine: e, MaxBytes: max, Admission: admission, Shards: 8})
			if err != nil {
				t.Fatal(err)
			}
			var overflow atomic.Int64
			var wg sync.WaitGroup
			stop := make(chan struct{})
			var obsWg sync.WaitGroup
			// A dedicated observer polls the bound while mutators run.
			obsWg.Add(1)
			go func() {
				defer obsWg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if n := c.Bytes(); n > max {
						overflow.Store(n)
						return
					}
					runtime.Gosched()
				}
			}()
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 400; i++ {
						k := (g*31 + i) % 160
						key := fmt.Sprintf("/p%d", k)
						switch {
						case i%5 == 4:
							c.Lookup(key)
						case i%17 == 16:
							c.InvalidateKey(key)
						default:
							c.Insert(key, []byte("x"), "text/html", []analysis.Query{
								{SQL: "SELECT a FROM t WHERE b = ?", Args: []memdb.Value{int64(k % 7)}},
							}, 0)
						}
						if n := c.Bytes(); n > max {
							overflow.Store(n)
							return
						}
					}
				}(g)
			}
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 60; i++ {
						if _, err := c.InvalidateWrite(analysis.WriteCapture{Query: analysis.Query{
							SQL: "UPDATE t SET a = ? WHERE b = ?", Args: []memdb.Value{int64(i), int64(i % 7)},
						}}); err != nil {
							t.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(stop)
			obsWg.Wait()
			if n := overflow.Load(); n > 0 {
				t.Fatalf("capacity bound violated: observed %d bytes > MaxBytes %d", n, max)
			}
			st := c.Snapshot()
			if st.Bytes > max {
				t.Fatalf("final bytes %d > MaxBytes %d", st.Bytes, max)
			}
			if st.Evictions+st.AdmissionRejects == 0 {
				t.Fatalf("bound never exercised: %+v", st)
			}
			// The dependency table must stay consistent with the page table:
			// flushing through the removal path must leave both empty.
			c.Flush()
			st = c.Snapshot()
			if st.Entries != 0 || st.DepTemplates != 0 || st.DepInstances != 0 {
				t.Fatalf("tables inconsistent after stress + flush: %+v", st)
			}
		})
	}
}

// TestStressCrossShardInvalidation verifies that one write chases its
// dependents across every page shard: many pages on distinct keys (hashing
// to different shards) share one dependency instance, and a single
// intersecting write must remove them all before returning.
func TestStressCrossShardInvalidation(t *testing.T) {
	e, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{Engine: e, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	shared := analysis.Query{SQL: "SELECT a FROM t WHERE b = ?", Args: []memdb.Value{int64(1)}}
	var wg sync.WaitGroup
	const pages = 256
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < pages; i += 8 {
				c.Insert(fmt.Sprintf("/p%d", i), []byte("x"), "text/html", []analysis.Query{shared}, 0)
			}
		}(g)
	}
	wg.Wait()
	n, err := c.InvalidateWrite(analysis.WriteCapture{Query: analysis.Query{
		SQL: "UPDATE t SET a = ? WHERE b = ?", Args: []memdb.Value{int64(9), int64(1)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if n != pages {
		t.Fatalf("invalidated %d pages, want %d", n, pages)
	}
	if c.Len() != 0 {
		t.Fatalf("%d stale pages survived", c.Len())
	}
	st := c.Snapshot()
	if st.DepTemplates != 0 || st.DepInstances != 0 {
		t.Fatalf("dependency table not cleaned: %+v", st)
	}
}
