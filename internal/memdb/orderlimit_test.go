package memdb_test

import (
	"context"
	"testing"

	"autowebcache/internal/memdb"
	"autowebcache/internal/rubis"
)

// aboutMeBids is AboutMe's bid list: the session user's bids joined to their
// items, newest first, one page long.
const aboutMeBids = "SELECT items.id, items.name, bids.bid, bids.qty, bids.date FROM bids JOIN items ON bids.item_id = items.id WHERE bids.user_id = ? ORDER BY bids.date DESC, bids.id DESC"

// aboutMeBuyNow is AboutMe's buy-now list, which stays short.
const aboutMeBuyNow = "SELECT buy_now.qty, buy_now.date, items.name FROM buy_now JOIN items ON buy_now.item_id = items.id WHERE buy_now.buyer_id = ? ORDER BY buy_now.date DESC, buy_now.id DESC LIMIT ?"

// userBids is how many bids aboutMeDB usually gives user 1: a list that has
// grown during a bidding run, as the ones that made AboutMe a slow miss did
// before its indexes were ordered.
const userBids = 1000

// aboutMeDB loads the RUBiS dataset at its default scale plus the given
// number of bids by user 1, each newer than the last.
func aboutMeDB(tb testing.TB, bids int) *memdb.DB {
	tb.Helper()
	db := memdb.New()
	last, err := rubis.Load(db, rubis.DefaultScale())
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	items := rubis.DefaultScale().Items
	for i := 0; i < bids; i++ {
		bid := float64(10 + i%50)
		if _, err := db.Exec(ctx, "INSERT INTO bids (user_id, item_id, qty, bid, max_bid, date) VALUES (?, ?, ?, ?, ?, ?)",
			1, 1+i%items, 1, bid, bid, last+int64(i+1)); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// TestOrderLimitAllocsBounded pins the cost of an ORDER BY … LIMIT page over
// a long match list: joined rows stream into the top-k heap, which copies a
// row only when it keeps it, so the statement's allocations are nearly all
// per statement. Rendering SQL per row, snapshotting every joined row, or
// materialising rows the LIMIT drops would each cost at least one
// allocation per matching row.
func TestOrderLimitAllocsBounded(t *testing.T) {
	db := aboutMeDB(t, userBids)
	ctx := context.Background()
	rows, err := db.Query(ctx, aboutMeBids+" LIMIT ?", 1, 25)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 25 {
		t.Fatalf("got %d rows, want 25", rows.Len())
	}
	count, err := db.Query(ctx, "SELECT COUNT(*) FROM bids WHERE user_id = ?", 1)
	if err != nil {
		t.Fatal(err)
	}
	matched := int(count.Int(0, 0))
	if matched < userBids {
		t.Fatalf("user 1 has %d bids, want at least %d", matched, userBids)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := db.Query(ctx, aboutMeBids+" LIMIT ?", 1, 25); err != nil {
			t.Fatal(err)
		}
	})
	if perRow := allocs / float64(matched); perRow > 0.25 {
		t.Fatalf("%.0f allocs for %d matching rows = %.2f per row, want at most 0.25", allocs, matched, perRow)
	}
}

// TestOrderedProbeVisitsBoundedRows pins what an ordered index buys: the
// bid list AboutMe pages through is walked newest first through the
// (user_id, date) bucket and left once 25 bids are kept, so the rows it
// visits, and SetRowCost charges, do not grow with the user's history.
func TestOrderedProbeVisitsBoundedRows(t *testing.T) {
	ctx := context.Background()
	visited := map[int]uint64{}
	for _, bids := range []int{1000, 8000} {
		db := aboutMeDB(t, bids)
		before := db.Stats().RowsScanned
		rows, err := db.Query(ctx, aboutMeBids+" LIMIT ?", 1, 25)
		if err != nil {
			t.Fatal(err)
		}
		visited[bids] = db.Stats().RowsScanned - before
		if rows.Len() != 25 || rows.Int(0, 4) <= rows.Int(24, 4) {
			t.Fatalf("%d bids: got %d rows from date %d to %d, want 25 newest first", bids, rows.Len(), rows.Int(0, 4), rows.Int(24, 4))
		}
	}
	// Each kept bid visits its item too. aboutMeDB's dates are distinct,
	// so the 25th bid has no tie group to finish.
	if visited[1000] != visited[8000] || visited[8000] > 2*25 {
		t.Fatalf("LIMIT 25 visited %d rows over 1000 bids and %d over 8000, want the same, at most %d",
			visited[1000], visited[8000], 2*25)
	}
}

var sinkRows *memdb.Rows

// BenchmarkSelectOrderLimit runs AboutMe's bid-list query over userBids
// matching rows: "limit" is the page the handler asks for (top-k over the
// ordered bucket), "full" the same statement without LIMIT (the full stable
// sort), "short" AboutMe's buy-now list, which matches fewer rows than the
// LIMIT, so the per-statement cost shows, and "limit-8000" the page over
// 8000 matching rows, which costs what "limit" does.
func BenchmarkSelectOrderLimit(b *testing.B) {
	db := aboutMeDB(b, userBids)
	long := aboutMeDB(b, 8000)
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		db   *memdb.DB
		sql  string
		args []any
	}{
		{"limit", db, aboutMeBids + " LIMIT ?", []any{1, 25}},
		{"full", db, aboutMeBids, []any{1}},
		{"short", db, aboutMeBuyNow, []any{1, 25}},
		{"limit-8000", long, aboutMeBids + " LIMIT ?", []any{1, 25}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := bc.db.Query(ctx, bc.sql, bc.args...)
				if err != nil {
					b.Fatal(err)
				}
				sinkRows = rows
			}
		})
	}
}

// BenchmarkSelectIn runs RUBiS's IN-subquery pages on the default dataset:
// RegionStats groups the items of a region's sellers, and
// BrowseCategoriesByRegion nests one IN-subquery in another. Each IN is on
// an indexed column, so it is answered by index probes.
func BenchmarkSelectIn(b *testing.B) {
	db := memdb.New()
	if _, err := rubis.Load(db, rubis.DefaultScale()); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		sql  string
	}{
		{"region-stats", "SELECT category, COUNT(id) AS items, SUM(nb_of_bids) AS bids, AVG(initial_price) AS avg_price FROM items WHERE seller IN (SELECT id FROM users WHERE region = ?) GROUP BY category ORDER BY category ASC"},
		{"categories-by-region", "SELECT id, name FROM categories WHERE id IN (SELECT category FROM items WHERE seller IN (SELECT id FROM users WHERE region = ?)) ORDER BY id ASC"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := db.Query(ctx, bc.sql, 1+i%rubis.DefaultScale().Regions)
				if err != nil {
					b.Fatal(err)
				}
				sinkRows = rows
			}
		})
	}
}
