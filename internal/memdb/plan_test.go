package memdb

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

// TestStatementCacheSharesParseAndPlan: a statement is parsed once and
// planned once per schema version, and every execution shares both.
func TestStatementCacheSharesParseAndPlan(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	templates, hits, misses := db.ParseCacheStats()
	const sql = "SELECT name FROM users WHERE region = ? ORDER BY name ASC"
	var plans []*plan
	for range 3 {
		if _, err := db.Query(ctx, sql, 1); err != nil {
			t.Fatal(err)
		}
		plans = append(plans, db.stmts[sql].plan.Load())
	}
	if plans[0] == nil || plans[1] != plans[0] || plans[2] != plans[0] {
		t.Fatalf("executions compiled their own plans: %p %p %p", plans[0], plans[1], plans[2])
	}
	t2, h2, m2 := db.ParseCacheStats()
	if t2 != templates+1 || h2 != hits+2 || m2 != misses+1 {
		t.Fatalf("stats moved by (%d, %d, %d), want (1, 2, 1)", t2-templates, h2-hits, m2-misses)
	}
	if _, err := db.Query(ctx, "NOT SQL"); err == nil {
		t.Fatal("expected error for bad sql")
	}
	if t3, _, _ := db.ParseCacheStats(); t3 != t2 {
		t.Fatal("a statement that does not parse was cached")
	}
}

// TestCompiledPlanFollowsSchema: CREATE INDEX moves the schema version, so
// the next execution of a cached statement is planned with the new index
// and probes it instead of scanning. A plan compiled before an ordered
// index replaced a plain one still reads the live index.
func TestCompiledPlanFollowsSchema(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	const sql = "SELECT id, name FROM users WHERE rating = ? ORDER BY id ASC"
	run := func() (*Rows, uint64) {
		t.Helper()
		before := db.Stats().RowsScanned
		rows, err := db.Query(ctx, sql, 9)
		if err != nil {
			t.Fatal(err)
		}
		return rows, db.Stats().RowsScanned - before
	}
	scanned, all := run()
	if all != 5 {
		t.Fatalf("unindexed rating visits %d rows, want every user (5)", all)
	}
	if _, err := db.Exec(ctx, "CREATE INDEX idx_users_rating ON users (rating)"); err != nil {
		t.Fatal(err)
	}
	probed, bucket := run()
	if bucket != 1 {
		t.Errorf("after CREATE INDEX the query visits %d rows, want the bucket's 1", bucket)
	}
	if !reflect.DeepEqual(probed.Data, scanned.Data) {
		t.Errorf("index changed the result: %v, was %v", probed.Data, scanned.Data)
	}

	const byRegion = "SELECT name FROM users WHERE region = ? ORDER BY name ASC"
	if _, err := db.Query(ctx, byRegion, 1); err != nil {
		t.Fatal(err)
	}
	held := db.stmts[byRegion].plan.Load()
	if _, err := db.Exec(ctx, "CREATE INDEX idx_users_region_rating ON users (region, rating)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, "INSERT INTO users (name, region, rating) VALUES ('abe', 1, 4)"); err != nil {
		t.Fatal(err)
	}
	rows, _, err := db.execSelect(held, []Value{int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]Value{{"abe"}, {"alice"}, {"bob"}}; !reflect.DeepEqual(rows.Data, want) {
		t.Errorf("a plan held across the ordered index reads %v, want %v", rows.Data, want)
	}
}

// RecycledAllocs returns what one call of f allocates once the runs of its
// plans are recycled: the least of 20 single measurements. A run put back
// may be dropped — a GC empties the pool, and the race detector drops a
// random quarter of what is put back on purpose — and a dropped run only
// adds a new run's allocations to the call after it.
func RecycledAllocs(f func()) float64 {
	least := math.Inf(1)
	for range 20 {
		least = min(least, testing.AllocsPerRun(1, f))
	}
	return least
}

// TestPointSelectAllocs pins the cost of a repeated primary-key point
// SELECT: with the plan cached and its run recycled, an execution allocates
// its argument vector and its result — the Rows, its column names, its row
// headers and its one slab of values — and nothing else.
func TestPointSelectAllocs(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	const sql = "SELECT name, rating FROM users WHERE id = ?"
	id := int64(3)
	n := RecycledAllocs(func() {
		rows, err := db.Query(ctx, sql, id)
		if err != nil || rows.Len() != 1 {
			t.Fatalf("point select: %v, %v", rows, err)
		}
	})
	if n > 5 {
		t.Fatalf("point select allocates %v times, want at most 5", n)
	}
}

// TestSharedPlanConcurrent runs the same statements from many goroutines
// over their shared plans while CREATE INDEX recompiles them and writes
// land on a table none of them reads. Run it under -race.
func TestSharedPlanConcurrent(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	db.MustCreateTable(TableSpec{Name: "log", Columns: []Column{{Name: "id", Type: TypeInt, AutoIncrement: true}, {Name: "n", Type: TypeInt}}})
	queries := []struct {
		sql  string
		args []any
	}{
		{"SELECT u.name, i.name FROM users u JOIN items i ON i.seller = u.id WHERE u.region = ? ORDER BY i.price DESC LIMIT ?", []any{1, 2}},
		{"SELECT category, COUNT(*) AS n, MAX(price) FROM items WHERE seller IN (SELECT id FROM users WHERE region = ?) GROUP BY category ORDER BY category ASC", []any{1}},
		{"SELECT u.name, i.name FROM users u LEFT JOIN items i ON i.seller = u.id WHERE u.rating >= ? ORDER BY u.id ASC, i.id ASC", []any{0}},
		{"SELECT name FROM users WHERE id IN (?, ?, ?) AND rating > ? ORDER BY name DESC", []any{1, 3, 5, 2}},
		{"SELECT * FROM items WHERE category = ? ORDER BY id ASC", []any{10}},
		// The same plans with other arguments, so recycled runs change hands
		// between executions that find different rows.
		{"SELECT u.name, i.name FROM users u JOIN items i ON i.seller = u.id WHERE u.region = ? ORDER BY i.price DESC LIMIT ?", []any{2, 1}},
		{"SELECT category, COUNT(*) AS n, MAX(price) FROM items WHERE seller IN (SELECT id FROM users WHERE region = ?) GROUP BY category ORDER BY category ASC", []any{3}},
		// An IN-subquery nested in another, as BrowseCategoriesByRegion's.
		{"SELECT id, name FROM users WHERE id IN (SELECT seller FROM items WHERE category IN (SELECT category FROM items WHERE seller IN (SELECT id FROM users WHERE region = ?))) ORDER BY id ASC", []any{1}},
		{"SELECT id, name FROM users WHERE id IN (SELECT seller FROM items WHERE category IN (SELECT category FROM items WHERE seller IN (SELECT id FROM users WHERE region = ?))) ORDER BY id ASC", []any{3}},
	}
	want := make([]*Rows, len(queries))
	for i, q := range queries {
		rows, err := db.Query(ctx, q.sql, q.args...)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rows
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range 200 {
				q := (g + n) % len(queries)
				rows, err := db.Query(ctx, queries[q].sql, queries[q].args...)
				if err == nil && !reflect.DeepEqual(rows, want[q]) {
					err = fmt.Errorf("%q: got %v, want %v", queries[q].sql, rows.Data, want[q].Data)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, ddl := range []string{
			"CREATE INDEX idx_users_rating ON users (rating)",
			"CREATE INDEX idx_items_price ON items (price)",
			"CREATE INDEX idx_items_seller_name ON items (seller, name)", // replaces a plain index
		} {
			for _, sql := range []string{ddl, "INSERT INTO log (n) VALUES (?)"} {
				if _, err := db.Exec(ctx, sql, i); err != nil {
					errs <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

var sinkPoint *Rows

// BenchmarkSelectPoint runs a primary-key point SELECT, the most common
// statement of a RUBiS page, over a cached plan.
func BenchmarkSelectPoint(b *testing.B) {
	db := New()
	db.MustCreateTable(TableSpec{Name: "items", Columns: []Column{
		{Name: "id", Type: TypeInt, AutoIncrement: true},
		{Name: "name", Type: TypeString},
		{Name: "price", Type: TypeFloat},
		{Name: "seller", Type: TypeInt},
	}})
	ctx := context.Background()
	for i := range 1000 {
		if _, err := db.Exec(ctx, "INSERT INTO items (name, price, seller) VALUES (?, ?, ?)", fmt.Sprintf("item %d", i), float64(i)/4, i%97); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		rows, err := db.Query(ctx, "SELECT name, price, seller FROM items WHERE id = ?", 1+i%1000)
		if err != nil {
			b.Fatal(err)
		}
		sinkPoint = rows
	}
}

// TestUnresolvedReferenceFailsWhenEvaluated: column references are bound
// when a plan is compiled, but one that names no column of the statement's
// tables still fails only when it is evaluated — in the select list, in an
// ORDER BY key — so a query that reads no row succeeds.
func TestUnresolvedReferenceFailsWhenEvaluated(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	for _, sql := range []string{
		"SELECT nosuch FROM users",
		"SELECT name FROM users ORDER BY nosuch",
		"SELECT name FROM users ORDER BY nosuch + 1 LIMIT 2",
	} {
		if _, err := db.Query(ctx, sql); err == nil {
			t.Errorf("%s: evaluated an unknown column without error", sql)
		}
	}
	if _, err := db.Query(ctx, "SELECT nosuch FROM users WHERE id = ?", -1); err != nil {
		t.Errorf("a query that reads no row failed: %v", err)
	}
}
