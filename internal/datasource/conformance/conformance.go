// Package conformance is the executable specification of the datasource
// contract: a test suite every driver must pass. The caching layers above
// depend on these exact behaviours — canonical value normalisation (argument
// vectors and probe keys must compare identically across drivers), result
// rows the caller owns (they never alias driver storage), exact Exec row
// counts and insert ids (the analysis engine feeds them into invalidation),
// and error shapes (misuse surfaces as errors, not panics or silent
// nonsense).
package conformance

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"autowebcache/internal/datasource"
)

// Factory opens a fresh, empty database for one (sub)test. Implementations
// clean up via t.Cleanup.
type Factory func(t *testing.T) datasource.Conn

// Run exercises the full conformance suite against the driver behind open.
func Run(t *testing.T, open Factory) {
	t.Run("Normalization", func(t *testing.T) { testNormalization(t, open(t)) })
	t.Run("RowsOwned", func(t *testing.T) { testRowsOwned(t, open(t)) })
	t.Run("ExecCounts", func(t *testing.T) { testExecCounts(t, open(t)) })
	t.Run("AutoIncrement", func(t *testing.T) { testAutoIncrement(t, open(t)) })
	t.Run("ErrorShapes", func(t *testing.T) { testErrorShapes(t, open(t)) })
	t.Run("DDLIdempotence", func(t *testing.T) { testDDLIdempotence(t, open(t)) })
	t.Run("QueryShapes", func(t *testing.T) { testQueryShapes(t, open(t)) })
	t.Run("OrderedIndex", func(t *testing.T) { testOrderedIndex(t, open(t)) })
	t.Run("SchemaReport", func(t *testing.T) { testSchemaReport(t, open(t)) })
	t.Run("Bootstrap", func(t *testing.T) { testBootstrap(t, open(t)) })
}

var ctx = context.Background()

func mustExec(t *testing.T, c datasource.Conn, sql string, args ...any) datasource.Result {
	t.Helper()
	res, err := c.Exec(ctx, sql, args...)
	if err != nil {
		t.Fatalf("Exec %q: %v", sql, err)
	}
	return res
}

func mustQuery(t *testing.T, c datasource.Conn, sql string, args ...any) *datasource.Rows {
	t.Helper()
	rows, err := c.Query(ctx, sql, args...)
	if err != nil {
		t.Fatalf("Query %q: %v", sql, err)
	}
	return rows
}

// bootSchema creates the small schema the suite works on.
func bootSchema(t *testing.T, c datasource.Conn) {
	t.Helper()
	mustExec(t, c, "CREATE TABLE IF NOT EXISTS conf_items (id INTEGER PRIMARY KEY AUTO_INCREMENT, category INTEGER, name TEXT, price REAL)")
	mustExec(t, c, "CREATE INDEX IF NOT EXISTS idx_conf_items_category ON conf_items (category)")
	mustExec(t, c, "CREATE TABLE IF NOT EXISTS conf_cats (id INTEGER, label TEXT)")
}

// testNormalization: convenient Go argument types round-trip to the four
// canonical value types, identically across drivers.
func testNormalization(t *testing.T, c datasource.Conn) {
	bootSchema(t, c)
	mustExec(t, c, "INSERT INTO conf_cats (id, label) VALUES (?, ?)", int32(7), []byte("bytes"))
	mustExec(t, c, "INSERT INTO conf_items (category, name, price) VALUES (?, ?, ?)", uint(3), "widget", float32(2.5))
	mustExec(t, c, "INSERT INTO conf_items (category, name, price) VALUES (?, ?, ?)", true, nil, 4)

	rows := mustQuery(t, c, "SELECT category, name, price FROM conf_items ORDER BY id")
	if rows.Len() != 2 {
		t.Fatalf("rows: %d", rows.Len())
	}
	if v, ok := rows.Data[0][0].(int64); !ok || v != 3 {
		t.Errorf("uint arg: got %T %v, want int64 3", rows.Data[0][0], rows.Data[0][0])
	}
	if v, ok := rows.Data[0][1].(string); !ok || v != "widget" {
		t.Errorf("string arg: got %T %v", rows.Data[0][1], rows.Data[0][1])
	}
	if v, ok := rows.Data[0][2].(float64); !ok || v != 2.5 {
		t.Errorf("float32 arg: got %T %v, want float64 2.5", rows.Data[0][2], rows.Data[0][2])
	}
	if v, ok := rows.Data[1][0].(int64); !ok || v != 1 {
		t.Errorf("bool arg: got %T %v, want int64 1", rows.Data[1][0], rows.Data[1][0])
	}
	if rows.Data[1][1] != nil {
		t.Errorf("nil arg: got %T %v, want nil", rows.Data[1][1], rows.Data[1][1])
	}

	cats := mustQuery(t, c, "SELECT id, label FROM conf_cats WHERE id = ?", "7")
	if cats.Len() != 1 {
		t.Fatalf("string-typed numeric key should match: %d rows", cats.Len())
	}
	if v, ok := cats.Data[0][1].(string); !ok || v != "bytes" {
		t.Errorf("[]byte arg: got %T %v, want string", cats.Data[0][1], cats.Data[0][1])
	}
}

// testRowsOwned: result rows belong to the caller — mutating a result
// changes neither driver storage nor what a later query returns.
func testRowsOwned(t *testing.T, c datasource.Conn) {
	bootSchema(t, c)
	mustExec(t, c, "INSERT INTO conf_cats (id, label) VALUES (1, 'one'), (2, 'two')")
	rows := mustQuery(t, c, "SELECT id, label FROM conf_cats ORDER BY id")
	rows.Columns[0] = "mutated"
	rows.Data[1][1] = "mutated"
	again := mustQuery(t, c, "SELECT id, label FROM conf_cats ORDER BY id")
	if again.Columns[0] != "id" || again.Data[1][1] != "two" {
		t.Fatal("result rows alias driver storage")
	}
}

// testExecCounts: RowsAffected is the exact matched-row count.
func testExecCounts(t *testing.T, c datasource.Conn) {
	bootSchema(t, c)
	if n := mustExec(t, c, "INSERT INTO conf_cats (id, label) VALUES (1, 'a')").RowsAffected; n != 1 {
		t.Errorf("single INSERT: %d", n)
	}
	if n := mustExec(t, c, "INSERT INTO conf_cats (id, label) VALUES (2, 'b'), (3, 'b')").RowsAffected; n != 2 {
		t.Errorf("multi INSERT: %d", n)
	}
	if n := mustExec(t, c, "UPDATE conf_cats SET label = 'c' WHERE label = ?", "b").RowsAffected; n != 2 {
		t.Errorf("UPDATE: %d", n)
	}
	if n := mustExec(t, c, "UPDATE conf_cats SET label = 'z' WHERE id = ?", 99).RowsAffected; n != 0 {
		t.Errorf("no-match UPDATE: %d", n)
	}
	if n := mustExec(t, c, "DELETE FROM conf_cats WHERE label = 'c'").RowsAffected; n != 2 {
		t.Errorf("DELETE: %d", n)
	}
}

// testAutoIncrement: LastInsertID reports the assigned key, usable to read
// the row back.
func testAutoIncrement(t *testing.T, c datasource.Conn) {
	bootSchema(t, c)
	first := mustExec(t, c, "INSERT INTO conf_items (category, name, price) VALUES (1, 'a', 1.0)").LastInsertID
	second := mustExec(t, c, "INSERT INTO conf_items (category, name, price) VALUES (1, 'b', 2.0)").LastInsertID
	if first == 0 || second != first+1 {
		t.Fatalf("auto-increment ids: %d then %d", first, second)
	}
	rows := mustQuery(t, c, "SELECT name FROM conf_items WHERE id = ?", second)
	if rows.Len() != 1 || rows.Data[0][0] != "b" {
		t.Fatalf("read-back by LastInsertID: %+v", rows.Data)
	}
}

// testErrorShapes: misuse yields errors, not panics or empty success.
func testErrorShapes(t *testing.T, c datasource.Conn) {
	bootSchema(t, c)
	if _, err := c.Query(ctx, "SELECT id FROM conf_nope"); err == nil {
		t.Error("query unknown table: no error")
	}
	if _, err := c.Query(ctx, "DELETE FROM conf_cats"); err == nil {
		t.Error("Query with a write statement: no error")
	}
	if _, err := c.Query(ctx, "SELECT id FROM"); err == nil {
		t.Error("malformed SQL: no error")
	}
	if _, err := c.Exec(ctx, "INSERT INTO conf_cats (id, label) VALUES (?, ?)", 1); err == nil {
		t.Error("missing argument: no error")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.Query(cancelled, "SELECT id FROM conf_cats"); err == nil {
		t.Error("cancelled context: no error")
	}
}

// testDDLIdempotence: IF NOT EXISTS makes bootstrap re-runnable.
func testDDLIdempotence(t *testing.T, c datasource.Conn) {
	bootSchema(t, c)
	bootSchema(t, c) // must not fail
	mustExec(t, c, "INSERT INTO conf_cats (id, label) VALUES (1, 'kept')")
	bootSchema(t, c)
	if rows := mustQuery(t, c, "SELECT id FROM conf_cats"); rows.Len() != 1 {
		t.Fatal("re-bootstrap dropped data")
	}
}

// testQueryShapes: the richer read shapes the analysis understands — JOIN,
// GROUP BY aggregate, IN-subquery — execute correctly through the driver.
func testQueryShapes(t *testing.T, c datasource.Conn) {
	bootSchema(t, c)
	mustExec(t, c, "INSERT INTO conf_cats (id, label) VALUES (1, 'tools'), (2, 'toys')")
	mustExec(t, c, "INSERT INTO conf_items (category, name, price) VALUES (1, 'hammer', 10.0), (1, 'saw', 20.0), (2, 'ball', 5.0)")

	join := mustQuery(t, c,
		"SELECT i.name, c.label FROM conf_items i JOIN conf_cats c ON i.category = c.id WHERE c.label = ? ORDER BY i.name", "tools")
	if join.Len() != 2 || join.Data[0][0] != "hammer" {
		t.Fatalf("JOIN: %+v", join.Data)
	}

	agg := mustQuery(t, c,
		"SELECT category, COUNT(*), SUM(price) FROM conf_items GROUP BY category ORDER BY category")
	if agg.Len() != 2 || agg.Int(0, 1) != 2 || agg.Float(0, 2) != 30.0 {
		t.Fatalf("GROUP BY aggregate: %+v", agg.Data)
	}

	sub := mustQuery(t, c,
		"SELECT label FROM conf_cats WHERE id IN (SELECT category FROM conf_items WHERE price > ?) ORDER BY id", 8.0)
	if sub.Len() != 1 || sub.Data[0][0] != "tools" {
		t.Fatalf("IN-subquery: %+v", sub.Data)
	}
}

// testOrderedIndex: a table under CREATE INDEX … (k, o) and an unindexed
// twin take the same seeded inserts, updates of k and of o, and deletes
// (later inserts reuse the freed slots); after each batch, every
// `WHERE k = ? ORDER BY o … LIMIT ? OFFSET ?` page is the same on both.
func testOrderedIndex(t *testing.T, c datasource.Conn) {
	tables := []string{"conf_ordered", "conf_twin"}
	for _, tbl := range tables {
		mustExec(t, c, "CREATE TABLE IF NOT EXISTS "+tbl+" (id INTEGER PRIMARY KEY AUTO_INCREMENT, k INTEGER, o INTEGER, s TEXT)")
	}
	mustExec(t, c, "CREATE INDEX IF NOT EXISTS idx_conf_ordered_k_o ON conf_ordered (k, o)")
	rng := rand.New(rand.NewSource(0x0dde7))
	both := func(sql string, args ...any) {
		t.Helper()
		for _, tbl := range tables {
			mustExec(t, c, fmt.Sprintf(sql, tbl), args...)
		}
	}
	// Order values repeat and include NULLs, so the id tie-break matters.
	order := func() any {
		if rng.Intn(8) == 0 {
			return nil
		}
		return rng.Intn(10)
	}
	inserted := 0
	for batch := 0; batch < 8; batch++ {
		for i := 0; i < 30; i++ {
			id := 1 + rng.Intn(inserted+1)
			switch rng.Intn(5) {
			case 0, 1:
				both("INSERT INTO %s (k, o, s) VALUES (?, ?, ?)", rng.Intn(4), order(), fmt.Sprintf("row-%d", inserted))
				inserted++
			case 2:
				both("UPDATE %s SET k = ? WHERE id = ?", rng.Intn(4), id)
			case 3:
				both("UPDATE %s SET o = ? WHERE id = ?", order(), id)
			default:
				both("DELETE FROM %s WHERE id = ?", id)
			}
		}
		for k := 0; k < 4; k++ {
			for _, dir := range []string{"ASC", "DESC"} {
				tie := []string{"ASC", "DESC"}[rng.Intn(2)]
				limit, offset := rng.Intn(8), rng.Intn(4)
				sql := "SELECT id, k, o, s FROM %s WHERE k = ? ORDER BY o " + dir + ", id " + tie + " LIMIT ? OFFSET ?"
				got := mustQuery(t, c, fmt.Sprintf(sql, tables[0]), k, limit, offset)
				want := mustQuery(t, c, fmt.Sprintf(sql, tables[1]), k, limit, offset)
				if !reflect.DeepEqual(got.Data, want.Data) {
					t.Fatalf("batch %d: %s with k=%d LIMIT %d OFFSET %d:\nordered index %v\n   unindexed %v",
						batch, sql, k, limit, offset, got.Data, want.Data)
				}
			}
		}
	}
}

// testSchemaReport: when the driver reports schema, the report must match
// the DDL.
func testSchemaReport(t *testing.T, c datasource.Conn) {
	sr, ok := c.(datasource.SchemaReporter)
	if !ok {
		t.Skip("driver does not implement SchemaReporter")
	}
	bootSchema(t, c)
	cols, err := sr.ColumnNames("conf_items")
	if err != nil {
		t.Fatalf("ColumnNames: %v", err)
	}
	want := []string{"id", "category", "name", "price"}
	if len(cols) != len(want) {
		t.Fatalf("columns: %v", cols)
	}
	for i := range want {
		if cols[i] != want[i] {
			t.Fatalf("columns: %v, want %v", cols, want)
		}
	}
	if _, err := sr.ColumnNames("conf_nope"); err == nil {
		t.Error("ColumnNames of unknown table: no error")
	}
	if ai, ok := sr.AutoIncrementColumn("conf_items"); !ok || ai != "id" {
		t.Errorf("AutoIncrementColumn(conf_items) = %q, %v", ai, ok)
	}
	if _, ok := sr.AutoIncrementColumn("conf_cats"); ok {
		t.Error("conf_cats should have no auto-increment column")
	}
}

// testBootstrap: when the driver provides Bootstrap, racing bootstrappers
// serialise and each observes the predecessors' writes.
func testBootstrap(t *testing.T, c datasource.Conn) {
	b, ok := c.(datasource.Bootstrapper)
	if !ok {
		t.Skip("driver does not implement Bootstrapper")
	}
	const racers = 4
	errs := make(chan error, racers)
	for i := 0; i < racers; i++ {
		go func() {
			errs <- b.Bootstrap(ctx, func(conn datasource.Conn) error {
				if _, err := conn.Exec(ctx, "CREATE TABLE IF NOT EXISTS conf_boot (n INTEGER)"); err != nil {
					return err
				}
				rows, err := conn.Query(ctx, "SELECT COUNT(*) FROM conf_boot")
				if err != nil {
					return err
				}
				// Seed only once: later bootstrappers observe the first
				// racer's row and leave it alone.
				if rows.Int(0, 0) == 0 {
					if _, err := conn.Exec(ctx, "INSERT INTO conf_boot (n) VALUES (1)"); err != nil {
						return err
					}
				}
				return nil
			})
		}()
	}
	for i := 0; i < racers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Bootstrap: %v", err)
		}
	}
	rows := mustQuery(t, c, "SELECT COUNT(*) FROM conf_boot")
	if rows.Int(0, 0) != 1 {
		t.Fatalf("seeded %d times, want exactly once", rows.Int(0, 0))
	}
}
