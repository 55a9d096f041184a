package memdb

import (
	"context"
	"math"
	"testing"
	"time"
)

func TestCoerceStringNumerics(t *testing.T) {
	db := New()
	db.MustCreateTable(TableSpec{Name: "t", Columns: []Column{
		{Name: "i", Type: TypeInt},
		{Name: "f", Type: TypeFloat},
		{Name: "s", Type: TypeString},
	}})
	ctx := context.Background()
	if _, err := db.Exec(ctx, "INSERT INTO t (i, f, s) VALUES (?, ?, ?)", "42", " 2.5 ", 7); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(ctx, "SELECT i, f, s FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Int(0, 0) != 42 || rows.Float(0, 1) != 2.5 || rows.Str(0, 2) != "7" {
		t.Fatalf("rows: %+v", rows.Data)
	}
	// Non-numeric strings into numeric columns still fail.
	if _, err := db.Exec(ctx, "INSERT INTO t (i, f, s) VALUES (?, ?, ?)", "nope", 1.0, "x"); err == nil {
		t.Fatal("expected coercion error")
	}
	// Float-looking strings coerce into INT via truncation.
	if _, err := db.Exec(ctx, "INSERT INTO t (i, f, s) VALUES (?, ?, ?)", "3.9", 1.0, "x"); err != nil {
		t.Fatal(err)
	}
	rows, err = db.Query(ctx, "SELECT i FROM t WHERE s = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Int(0, 0) != 3 {
		t.Fatalf("trunc: %+v", rows.Data)
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	db := New()
	db.MustCreateTable(TableSpec{Name: "t", Columns: []Column{
		{Name: "a", Type: TypeInt}, {Name: "b", Type: TypeInt},
	}})
	ctx := context.Background()
	for _, row := range [][2]int{{1, 3}, {2, 1}, {1, 1}, {2, 3}, {1, 2}} {
		if _, err := db.Exec(ctx, "INSERT INTO t (a, b) VALUES (?, ?)", row[0], row[1]); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.Query(ctx, "SELECT a, b FROM t ORDER BY a ASC, b DESC")
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 3}, {1, 2}, {1, 1}, {2, 3}, {2, 1}}
	for i, w := range want {
		if rows.Int(i, 0) != w[0] || rows.Int(i, 1) != w[1] {
			t.Fatalf("row %d: %+v, want %v", i, rows.Data[i], w)
		}
	}
}

func TestOrderByAggregateAlias(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(),
		"SELECT seller, COUNT(*) AS n FROM items GROUP BY seller ORDER BY COUNT(*) DESC, seller ASC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 || rows.Int(0, 1) < rows.Int(1, 1) {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestCountDistinct(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(), "SELECT COUNT(DISTINCT category) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Int(0, 0) != 3 {
		t.Fatalf("distinct categories: %v", rows.Data)
	}
}

func TestSelectArithmeticProjection(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(), "SELECT price * 2 + 1 FROM items WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Float(0, 0) != 32 { // 15.5*2+1
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(), "SELECT price / 0 FROM items WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0] != nil {
		t.Fatalf("want NULL, got %v", rows.Data[0][0])
	}
}

func TestUpdateSwapSemantics(t *testing.T) {
	db := New()
	db.MustCreateTable(TableSpec{Name: "t", Columns: []Column{
		{Name: "a", Type: TypeInt}, {Name: "b", Type: TypeInt},
	}})
	ctx := context.Background()
	if _, err := db.Exec(ctx, "INSERT INTO t (a, b) VALUES (1, 2)"); err != nil {
		t.Fatal(err)
	}
	// SQL semantics: all SET expressions evaluate against the pre-update row.
	if _, err := db.Exec(ctx, "UPDATE t SET a = b, b = a"); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(ctx, "SELECT a, b FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Int(0, 0) != 2 || rows.Int(0, 1) != 1 {
		t.Fatalf("swap failed: %+v", rows.Data)
	}
}

func TestDeleteAllThenCount(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	res, err := db.Exec(ctx, "DELETE FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 6 {
		t.Fatalf("affected: %d", res.RowsAffected)
	}
	rows, err := db.Query(ctx, "SELECT COUNT(*) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Int(0, 0) != 0 {
		t.Fatalf("count: %v", rows.Data)
	}
}

func TestLimitWithPlaceholder(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(), "SELECT id FROM users ORDER BY id ASC LIMIT ? OFFSET ?", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 || rows.Int(0, 0) != 2 {
		t.Fatalf("rows: %+v", rows.Data)
	}
	if _, err := db.Query(context.Background(), "SELECT id FROM users LIMIT ?", -1); err == nil {
		t.Fatal("expected error for negative limit")
	}
	// A count at the top of the int range means "all rows", on the full
	// sort (no ORDER BY) and on top-k, where offset+count would overflow.
	for _, sql := range []string{"SELECT id FROM users LIMIT ? OFFSET ?", "SELECT id FROM users ORDER BY id DESC LIMIT ? OFFSET ?"} {
		rows, err = db.Query(context.Background(), sql, int64(math.MaxInt64), 1)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if rows.Len() != 4 {
			t.Fatalf("%q: %d rows, want 4: %+v", sql, rows.Len(), rows.Data)
		}
	}
}

func TestInExprWithColumnList(t *testing.T) {
	db := testDB(t)
	// IN over expressions referencing columns.
	rows, err := db.Query(context.Background(), "SELECT name FROM users WHERE rating IN (region, 9)")
	if err != nil {
		t.Fatal(err)
	}
	// carol: rating 9 matches literal 9. Others: rating==region never holds
	// in the fixture except none.
	if rows.Len() != 1 || rows.Str(0, 0) != "carol" {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestServiceTimeSimulation(t *testing.T) {
	db := testDB(t)
	db.SetLatency(200*time.Microsecond, 300*time.Microsecond)
	db.SetRowCost(0)
	ctx := context.Background()
	start := time.Now()
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := db.Query(ctx, "SELECT name FROM users WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < n*200*time.Microsecond/2 {
		t.Fatalf("service time not applied: %v for %d queries", elapsed, n)
	}
	db.SetLatency(0, 0)
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, err := db.Query(ctx, "SELECT name FROM users WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
	}
	if fast := time.Since(start); fast > elapsed {
		t.Fatalf("disabling service time did not speed up queries: %v vs %v", fast, elapsed)
	}
}

func TestRowCostScalesWithScan(t *testing.T) {
	db := New()
	db.MustCreateTable(TableSpec{Name: "big", Columns: []Column{
		{Name: "id", Type: TypeInt, AutoIncrement: true},
		{Name: "v", Type: TypeInt},
	}})
	ctx := context.Background()
	for i := 0; i < 2000; i++ {
		if _, err := db.Exec(ctx, "INSERT INTO big (v) VALUES (?)", i); err != nil {
			t.Fatal(err)
		}
	}
	db.SetRowCost(2 * time.Microsecond)
	start := time.Now()
	if _, err := db.Query(ctx, "SELECT COUNT(*) FROM big WHERE v >= 0"); err != nil {
		t.Fatal(err)
	}
	scan := time.Since(start)
	start = time.Now()
	if _, err := db.Query(ctx, "SELECT v FROM big WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	probe := time.Since(start)
	if scan < probe {
		t.Fatalf("full scan (%v) should cost more than index probe (%v)", scan, probe)
	}
	if scan < 2*time.Millisecond {
		t.Fatalf("scan cost not applied: %v", scan)
	}
}

func TestHavingWithoutGroupBy(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(), "SELECT COUNT(*) FROM items HAVING COUNT(*) > 100")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 0 {
		t.Fatalf("rows: %+v", rows.Data)
	}
	rows, err = db.Query(context.Background(), "SELECT COUNT(*) FROM items HAVING COUNT(*) > 1")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Int(0, 0) != 6 {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestQualifiedStarExpansion(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(),
		"SELECT u.*, i.name FROM users u JOIN items i ON i.seller = u.id WHERE u.id = 1 ORDER BY i.name ASC")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns) != 5 { // 4 user columns + item name
		t.Fatalf("columns: %v", rows.Columns)
	}
	if rows.Len() != 2 { // alice sells vase and book
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestDBIntrospection(t *testing.T) {
	db := testDB(t)
	if !db.HasTable("users") || db.HasTable("nosuch") {
		t.Fatal("HasTable")
	}
	col, ok := db.AutoIncrementColumn("users")
	if !ok || col != "id" {
		t.Fatalf("auto col: %q %v", col, ok)
	}
	if _, ok := db.AutoIncrementColumn("nosuch"); ok {
		t.Fatal("auto col for missing table")
	}
	templates, hits, misses := db.ParseCacheStats()
	if templates == 0 || hits+misses == 0 {
		t.Fatalf("parse cache stats: %d %d %d", templates, hits, misses)
	}
	for typ, want := range map[ColType]string{TypeInt: "INT", TypeFloat: "FLOAT", TypeString: "TEXT", ColType(0): "INVALID"} {
		if typ.String() != want {
			t.Errorf("%d: %s", int(typ), typ.String())
		}
	}
}

func TestScalarFuncErrors(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	bad := []string{
		"SELECT LOWER(name, name) FROM users",
		"SELECT NOSUCHFN(name) FROM users",
		"SELECT ABS(name) FROM users",
		"SELECT LENGTH() FROM users",
	}
	for _, q := range bad {
		if _, err := db.Query(ctx, q); err == nil {
			t.Errorf("%q: expected error", q)
		}
	}
	rows, err := db.Query(ctx, "SELECT LOWER(name) FROM users WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Str(0, 0) != "alice" {
		t.Fatalf("lower: %+v", rows.Data)
	}
}

func TestIsTruthyValues(t *testing.T) {
	truthy := []Value{int64(1), int64(-1), 0.5, "x"}
	falsy := []Value{nil, int64(0), 0.0, ""}
	for _, v := range truthy {
		if !IsTruthy(v) {
			t.Errorf("IsTruthy(%v) = false", v)
		}
	}
	for _, v := range falsy {
		if IsTruthy(v) {
			t.Errorf("IsTruthy(%v) = true", v)
		}
	}
}

func TestMustCreateTablePanics(t *testing.T) {
	db := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	db.MustCreateTable(TableSpec{})
}
