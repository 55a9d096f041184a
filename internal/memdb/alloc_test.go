package memdb_test

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"autowebcache/internal/memdb"
	"autowebcache/internal/rubis"
)

// RUBiS's pages as the handlers query them.
const (
	// categoriesByRegion is BrowseCategoriesByRegion: one IN-subquery nested
	// in another.
	categoriesByRegion = "SELECT id, name FROM categories WHERE id IN (SELECT category FROM items WHERE seller IN (SELECT id FROM users WHERE region = ?)) ORDER BY id ASC"
	// regionStats groups the items of a region's sellers.
	regionStats = "SELECT category, COUNT(id) AS items, SUM(nb_of_bids) AS bids, AVG(initial_price) AS avg_price FROM items WHERE seller IN (SELECT id FROM users WHERE region = ?) GROUP BY category ORDER BY category ASC"
	// viewItemCount and viewItemMax are ViewItem's bid summary.
	viewItemCount = "SELECT COUNT(*) FROM bids WHERE item_id = ?"
	viewItemMax   = "SELECT MAX(bid) FROM bids WHERE item_id = ?"
)

// hotItemDB loads the RUBiS dataset at its default scale plus the given
// number of bids on item 1.
func hotItemDB(tb testing.TB, bids int) *memdb.DB {
	tb.Helper()
	db := memdb.New()
	last, err := rubis.Load(db, rubis.DefaultScale())
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < bids; i++ {
		bid := float64(10 + i%50)
		if _, err := db.Exec(ctx, "INSERT INTO bids (user_id, item_id, qty, bid, max_bid, date) VALUES (?, ?, ?, ?, ?, ?)",
			1+i%rubis.DefaultScale().Users, 1, 1, bid, bid, last+int64(i+1)); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// queryAllocs returns the allocations of one execution of sql over its
// cached plan and recycled runs.
func queryAllocs(t *testing.T, db *memdb.DB, sql string, args ...any) float64 {
	t.Helper()
	ctx := context.Background()
	return memdb.RecycledAllocs(func() {
		if _, err := db.Query(ctx, sql, args...); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPageQueryAllocs pins what a RUBiS page's statement allocates over a
// cached plan: its run comes from the plan's pool, an IN-subquery streams
// its values into the outer run, and the result is one Rows, its column
// names, its row headers and one slab of values. What else a statement
// allocates is the argument vector and the values it computes: a grouped
// page's new group keys and the aggregate results that do not fit a small
// boxed integer.
func TestPageQueryAllocs(t *testing.T) {
	db := aboutMeDB(t, userBids)
	for _, tc := range []struct {
		name string
		sql  string
		args []any
		want float64
	}{
		{"BrowseCategoriesByRegion", categoriesByRegion, []any{1}, 5},
		{"RegionStats", regionStats, []any{1}, 43},
		{"AboutMe bids", aboutMeBids + " LIMIT ?", []any{1, 25}, 5},
	} {
		if n := queryAllocs(t, db, tc.sql, tc.args...); n > tc.want {
			t.Errorf("%s allocates %v times, want at most %v", tc.name, n, tc.want)
		}
	}
}

// TestAggregateAllocsIgnoreBucket pins ViewItem's COUNT(*)/MAX(bid) pair
// over a hot item: folding a row into an aggregate allocates nothing, so
// the pair costs the same over 300 bids as over 3000. Both counts exceed
// a small boxed integer, so each COUNT result is one allocation.
func TestAggregateAllocsIgnoreBucket(t *testing.T) {
	const want = 11
	pair := map[int]float64{}
	for _, bids := range []int{300, 3000} {
		db := hotItemDB(t, bids)
		pair[bids] = queryAllocs(t, db, viewItemCount, 1) + queryAllocs(t, db, viewItemMax, 1)
	}
	if pair[300] != pair[3000] || pair[3000] > want {
		t.Fatalf("COUNT/MAX pair allocates %v times over 300 bids and %v over 3000, want the same, at most %v",
			pair[300], pair[3000], want)
	}
}

// TestRecycledScratchNeverLeaks holds a result of each kind of page while
// the same plans run a hundred times with other arguments, including a bad
// LIMIT that fails after the rows were visited: the held results do not
// change, since a result shares nothing with the scratch its run returns to
// the pool. Run it under -race.
func TestRecycledScratchNeverLeaks(t *testing.T) {
	db := aboutMeDB(t, 200)
	ctx := context.Background()
	const fullPage = "SELECT items.id, items.name, bids.bid FROM bids JOIN items ON bids.item_id = items.id WHERE bids.user_id = ? ORDER BY bids.bid DESC, bids.id ASC"
	pages := []struct {
		sql   string
		held  []any
		other func(i int) []any
	}{
		{aboutMeBids + " LIMIT ?", []any{1, 25}, func(i int) []any { return []any{2 + i%50, 1 + i%30} }},
		{fullPage + " LIMIT ?", []any{1, 10}, func(i int) []any { return []any{2 + i%50, -1} }}, // bad LIMIT
		{fullPage, []any{1}, func(i int) []any { return []any{2 + i%50} }},
		{categoriesByRegion, []any{1}, func(i int) []any { return []any{2 + i%9} }},
		{regionStats, []any{1}, func(i int) []any { return []any{2 + i%9} }},
	}
	for _, pg := range pages {
		held, err := db.Query(ctx, pg.sql, pg.held...)
		if err != nil {
			t.Fatal(err)
		}
		if held.Len() < 2 {
			t.Fatalf("%q: got %d rows, want at least 2", pg.sql, held.Len())
		}
		// None of these pages selects a NULL: one here is scratch that
		// was cleared under the result.
		for _, row := range held.Data {
			if slices.Contains(row, nil) {
				t.Fatalf("%q: result holds a NULL: %v", pg.sql, held.Data)
			}
		}
		want := copyRows(held)
		for i := range 100 {
			args := pg.other(i)
			_, err := db.Query(ctx, pg.sql, args...)
			if bad := args[len(args)-1] == -1; (err != nil) != bad {
				t.Fatalf("%q %v: err %v", pg.sql, args, err)
			}
		}
		if !reflect.DeepEqual(held, want) {
			t.Fatalf("%q: held result changed to %v, want %v", pg.sql, held.Data, want.Data)
		}
		// Rows share a slab but not capacity: appending to one reallocates.
		next := held.Data[1][0]
		row := append(held.Data[0], "appended")
		if !reflect.DeepEqual(held.Data[1][0], next) || &row[0] == &held.Data[0][0] {
			t.Fatalf("%q: appending to row 0 reached row 1 (%v)", pg.sql, held.Data[1])
		}
	}
}

func copyRows(r *memdb.Rows) *memdb.Rows {
	c := &memdb.Rows{Columns: append([]string(nil), r.Columns...), Data: make([][]memdb.Value, len(r.Data))}
	for i, row := range r.Data {
		c.Data[i] = append([]memdb.Value(nil), row...)
	}
	return c
}

// BenchmarkSelectAggregate runs ViewItem's COUNT(*)/MAX(bid) pair over an
// item with 1000 bids.
func BenchmarkSelectAggregate(b *testing.B) {
	db := hotItemDB(b, 1000)
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		for _, sql := range []string{viewItemCount, viewItemMax} {
			rows, err := db.Query(ctx, sql, 1)
			if err != nil {
				b.Fatal(err)
			}
			sinkRows = rows
		}
	}
}
