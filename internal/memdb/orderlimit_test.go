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

// userBids is how many bids aboutMeDB gives user 1: a list that has grown
// during a bidding run, as the ones that make AboutMe a slow miss do.
const userBids = 1000

// aboutMeDB loads the RUBiS dataset at its default scale plus userBids bids
// by user 1.
func aboutMeDB(tb testing.TB) *memdb.DB {
	tb.Helper()
	db := memdb.New()
	last, err := rubis.Load(db, rubis.DefaultScale())
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	items := rubis.DefaultScale().Items
	for i := 0; i < userBids; i++ {
		bid := float64(10 + i%50)
		if _, err := db.Exec(ctx, "INSERT INTO bids (user_id, item_id, qty, bid, max_bid, date) VALUES (?, ?, ?, ?, ?, ?)",
			1, 1+i%items, 1, bid, bid, last+int64(i+1)); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// TestOrderLimitAllocsBounded pins the cost of an ORDER BY … LIMIT page over
// a long match list: the executor may not allocate per matching row beyond a
// small constant (the joined-row snapshot), so neither rendering SQL per row
// nor materialising rows the LIMIT drops can come back.
func TestOrderLimitAllocsBounded(t *testing.T) {
	db := aboutMeDB(t)
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
	if perRow := allocs / float64(matched); perRow > 4 {
		t.Fatalf("%.0f allocs for %d matching rows = %.2f per row, want at most 4", allocs, matched, perRow)
	}
}

var sinkRows *memdb.Rows

// BenchmarkSelectOrderLimit runs AboutMe's bid-list query over userBids
// matching rows: "limit" is the page the handler asks for (top-k), "full"
// the same statement without LIMIT (the full stable sort).
func BenchmarkSelectOrderLimit(b *testing.B) {
	db := aboutMeDB(b)
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		sql  string
		args []any
	}{
		{"limit", aboutMeBids + " LIMIT ?", []any{1, 25}},
		{"full", aboutMeBids, []any{1}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := db.Query(ctx, bc.sql, bc.args...)
				if err != nil {
					b.Fatal(err)
				}
				sinkRows = rows
			}
		})
	}
}
