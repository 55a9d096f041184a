package qrcache

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStressConsistencyParallel is the parallel version of the sequential
// consistency property: within a round, parallel clients issue overlapping
// cached reads and compare every result against the raw database (which is
// quiescent during the round, so cached and raw must agree exactly);
// between rounds a writer mutates rows through the caching connection. Any
// result set surviving its invalidating write fails the comparison in the
// next round.
func TestStressConsistencyParallel(t *testing.T) {
	db, c := newFixture(t, 0)
	ctx := context.Background()
	reads := []string{
		"SELECT val FROM t WHERE grp = ? ORDER BY id ASC",
		"SELECT COUNT(*) FROM t WHERE grp = ?",
		"SELECT id, val FROM t WHERE val < ? ORDER BY id ASC",
	}
	const (
		clients = 8
		rounds  = 25
	)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		var failed atomic.Bool
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 40 && !failed.Load(); i++ {
					sql := reads[(g+i)%len(reads)]
					arg := (g*11 + i) % 40
					got, err := c.Query(ctx, sql, arg)
					if err != nil {
						failed.Store(true)
						t.Errorf("round %d: %v", round, err)
						return
					}
					want, err := db.Query(ctx, sql, arg)
					if err != nil {
						failed.Store(true)
						t.Errorf("round %d: %v", round, err)
						return
					}
					if !reflect.DeepEqual(got.Data, want.Data) {
						failed.Store(true)
						t.Errorf("round %d: stale result for %q(%d):\n got %v\nwant %v",
							round, sql, arg, got.Data, want.Data)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		// Mutate between rounds: the Exec path must invalidate every cached
		// result the write intersects before returning.
		switch round % 3 {
		case 0:
			if _, err := c.Exec(ctx, "UPDATE t SET val = ? WHERE grp = ?", round, round%5); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, err := c.Exec(ctx, "INSERT INTO t (grp, val) VALUES (?, ?)", round%5, round); err != nil {
				t.Fatal(err)
			}
		default:
			if _, err := c.Exec(ctx, "DELETE FROM t WHERE id = ?", 1+round); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := c.Snapshot(); st.Hits == 0 {
		t.Fatal("no hits; property not exercised")
	}
}

// TestStressParallelMixed races reads and writes through the caching
// connection with no barriers (exercising the shard locks under -race) and
// then verifies the cache converges to ground truth once writes stop.
func TestStressParallelMixed(t *testing.T) {
	db, c := newFixture(t, 0)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				if (g+i)%9 == 0 {
					if _, err := c.Exec(ctx, "UPDATE t SET val = ? WHERE grp = ?", i, (g+i)%5); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, err := c.Query(ctx, "SELECT val FROM t WHERE grp = ? ORDER BY id ASC", (g*7+i)%5); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// A read racing a write reads the pre-write rows and inserts them after
	// the write's sweep ran; the epoch re-check drops such an entry. So with
	// no flush in between, no surviving entry may differ from a fresh
	// database read.
	if c.Snapshot().Entries == 0 {
		t.Fatal("no surviving entries; check not exercised")
	}
	for grp := 0; grp < 5; grp++ {
		got, err := c.Query(ctx, "SELECT val FROM t WHERE grp = ? ORDER BY id ASC", grp)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Query(ctx, "SELECT val FROM t WHERE grp = ? ORDER BY id ASC", grp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Data, want.Data) {
			t.Fatalf("stale result for grp %d after quiescence:\n got %v\nwant %v", grp, got.Data, want.Data)
		}
	}
}

// TestStressBoundedCapacity asserts the Bytes <= MaxBytes invariant under
// parallel cache-filling traffic with distinct value vectors.
func TestStressBoundedCapacity(t *testing.T) {
	const max = 8 << 10
	_, c := newFixture(t, max)
	ctx := context.Background()
	var overflow atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				arg := (g*37 + i) % 64
				if _, err := c.Query(ctx, "SELECT id, val FROM t WHERE val < ? ORDER BY id ASC", arg); err != nil {
					t.Error(err)
					return
				}
				if n := c.Snapshot().Bytes; n > max {
					overflow.Store(n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := overflow.Load(); n > 0 {
		t.Fatalf("capacity bound violated: observed %d bytes > MaxBytes %d", n, max)
	}
	st := c.Snapshot()
	if st.Bytes > max {
		t.Fatalf("final bytes %d > MaxBytes %d", st.Bytes, max)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions; bound not exercised")
	}
	// The template index must stay consistent: the flush an unanalysable
	// write falls back to leaves both tables empty.
	c.store.Flush()
	if st := c.Snapshot(); st.Entries != 0 {
		t.Fatalf("entries after flush: %+v", st)
	}
	if st := c.Snapshot(); st.DepTemplates != 0 || st.DepInstances != 0 {
		t.Fatalf("dependency table not cleaned: %+v", st)
	}
}
