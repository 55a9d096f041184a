package qrcache

import (
	"context"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/memdb"
)

// rowsChecksum folds every cell of a result set into one checksum.
func rowsChecksum(r *memdb.Rows) uint32 {
	h := crc32.NewIEEE()
	for _, row := range r.Data {
		for _, v := range row {
			fmt.Fprintf(h, "%v|", v)
		}
		fmt.Fprint(h, "\n")
	}
	return h.Sum32()
}

// TestHitPathDoesNotScaleAllocations guards the qrcache half of the
// zero-copy rework: a hit returns the stored snapshot by reference, so the
// per-hit allocation count must not grow with the size of the result set
// (the old deep copy allocated one slice per row plus the column slice).
func TestHitPathDoesNotScaleAllocations(t *testing.T) {
	db := memdb.New()
	db.MustCreateTable(memdb.TableSpec{
		Name: "big",
		Columns: []memdb.Column{
			{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
			{Name: "grp", Type: memdb.TypeInt},
			{Name: "val", Type: memdb.TypeString},
		},
		Indexed: []string{"grp"},
	})
	ctx := context.Background()
	for i := 0; i < 800; i++ {
		if _, err := db.Exec(ctx, "INSERT INTO big (grp, val) VALUES (?, ?)", i%2, "payload"); err != nil {
			t.Fatal(err)
		}
	}
	engine, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(db, engine, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the entry (400 rows), then measure the hit path.
	if _, err := c.Query(ctx, "SELECT id, val FROM big WHERE grp = ?", 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		rows, err := c.Query(ctx, "SELECT id, val FROM big WHERE grp = ?", 0)
		if err != nil || rows.Len() != 400 {
			t.Fatalf("hit failed: %v (%d rows)", err, rows.Len())
		}
	})
	// The hit still normalizes args and builds the lookup key (a handful of
	// allocations), but must no longer pay one allocation per row: for a
	// 400-row result set the old copy cost >400 allocs per hit.
	if allocs > 10 {
		t.Fatalf("qrcache hit allocates %.0f objects for a 400-row result, want O(1)", allocs)
	}
}

// TestAliasingStressSharedSnapshots proves the qrcache no-mutation contract
// under -race: concurrent readers hold returned snapshots and re-checksum
// them while a writer churns the table through the caching connection.
// Invalidation and eviction remove whole entries, so a held snapshot never
// changes — even after the data it was computed from has been rewritten.
func TestAliasingStressSharedSnapshots(t *testing.T) {
	// The budget holds two or three of the five groups' results, so eviction
	// churns alongside invalidation.
	const maxBytes = 2 << 10
	_, c := newFixture(t, maxBytes)
	ctx := context.Background()
	const (
		readers = 8
		rounds  = 20
	)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				type held struct {
					rows *memdb.Rows
					sum  uint32
				}
				var pinned []held
				for i := 0; i < 30; i++ {
					grp := (g + i) % 5
					rows, err := c.Query(ctx, "SELECT id, val FROM t WHERE grp = ? ORDER BY id ASC", grp)
					if err != nil {
						t.Error(err)
						return
					}
					sum := rowsChecksum(rows)
					if i%7 == 0 {
						pinned = append(pinned, held{rows: rows, sum: sum})
					}
					// A second checksum of the same view must agree even
					// though other goroutines are writing and invalidating.
					if again := rowsChecksum(rows); again != sum {
						t.Errorf("snapshot changed under a concurrent writer: %08x -> %08x", sum, again)
						return
					}
					if n := c.Snapshot().Bytes; n > maxBytes {
						t.Errorf("capacity bound violated: observed %d bytes > MaxBytes %d", n, maxBytes)
						return
					}
				}
				for _, h := range pinned {
					if got := rowsChecksum(h.rows); got != h.sum {
						t.Errorf("pinned snapshot mutated: %08x -> %08x", h.sum, got)
						return
					}
				}
			}(g)
		}
		// The writer mutates rows through the caching connection while the
		// readers above hold and re-verify their snapshots.
		if _, err := c.Exec(ctx, "UPDATE t SET val = ? WHERE grp = ?", round*1000, round%5); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}
