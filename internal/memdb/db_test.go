package memdb

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"autowebcache/internal/datasource"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	db.MustCreateTable(TableSpec{
		Name: "users",
		Columns: []Column{
			{Name: "id", Type: TypeInt, AutoIncrement: true},
			{Name: "name", Type: TypeString},
			{Name: "region", Type: TypeInt},
			{Name: "rating", Type: TypeInt},
		},
		Indexed: []string{"region"},
	})
	db.MustCreateTable(TableSpec{
		Name: "items",
		Columns: []Column{
			{Name: "id", Type: TypeInt, AutoIncrement: true},
			{Name: "name", Type: TypeString},
			{Name: "seller", Type: TypeInt},
			{Name: "price", Type: TypeFloat},
			{Name: "category", Type: TypeInt},
		},
		Indexed: []string{"seller", "category"},
	})
	ctx := context.Background()
	users := []struct {
		name           string
		region, rating int
	}{
		{"alice", 1, 5}, {"bob", 1, 3}, {"carol", 2, 9}, {"dave", 2, 0}, {"erin", 3, 7},
	}
	for _, u := range users {
		if _, err := db.Exec(ctx, "INSERT INTO users (name, region, rating) VALUES (?, ?, ?)", u.name, u.region, u.rating); err != nil {
			t.Fatal(err)
		}
	}
	items := []struct {
		name             string
		seller, category int
		price            float64
	}{
		{"vase", 1, 10, 15.5}, {"book", 1, 20, 4.0}, {"lamp", 2, 10, 30.0},
		{"rug", 3, 30, 99.0}, {"pen", 3, 20, 1.25}, {"mug", 5, 10, 6.0},
	}
	for _, it := range items {
		if _, err := db.Exec(ctx, "INSERT INTO items (name, seller, price, category) VALUES (?, ?, ?, ?)", it.name, it.seller, it.price, it.category); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestInsertAutoIncrement(t *testing.T) {
	db := testDB(t)
	res, err := db.Exec(context.Background(), "INSERT INTO users (name, region, rating) VALUES ('zed', 1, 1)")
	if err != nil {
		t.Fatal(err)
	}
	if res.LastInsertID != 6 {
		t.Fatalf("LastInsertID = %d, want 6", res.LastInsertID)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("RowsAffected = %d", res.RowsAffected)
	}
}

func TestInsertExplicitIDAdvancesCounter(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	if _, err := db.Exec(ctx, "INSERT INTO users (id, name, region, rating) VALUES (100, 'x', 1, 1)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(ctx, "INSERT INTO users (name, region, rating) VALUES ('y', 1, 1)")
	if err != nil {
		t.Fatal(err)
	}
	if res.LastInsertID != 101 {
		t.Fatalf("LastInsertID = %d, want 101", res.LastInsertID)
	}
}

func TestSelectWhereEquality(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(), "SELECT name FROM users WHERE region = ?", 2)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Fatalf("got %d rows: %+v", rows.Len(), rows.Data)
	}
	got := map[string]bool{rows.Str(0, 0): true, rows.Str(1, 0): true}
	if !got["carol"] || !got["dave"] {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(), "SELECT * FROM users WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || len(rows.Columns) != 4 {
		t.Fatalf("rows: %+v cols: %v", rows.Data, rows.Columns)
	}
	if rows.Columns[1] != "name" || rows.Str(0, 1) != "alice" {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestSelectOrderLimit(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(), "SELECT name, rating FROM users ORDER BY rating DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 || rows.Str(0, 0) != "carol" || rows.Str(1, 0) != "erin" {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestSelectLimitOffset(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(), "SELECT name FROM users ORDER BY id ASC LIMIT 2 OFFSET 1")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 || rows.Str(0, 0) != "bob" || rows.Str(1, 0) != "carol" {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestSelectJoin(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(),
		"SELECT i.name, u.name FROM items i JOIN users u ON i.seller = u.id WHERE u.region = ? ORDER BY i.name ASC", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sellers in region 1: alice(1), bob(2) -> items vase, book (alice), lamp (bob)
	if rows.Len() != 3 {
		t.Fatalf("rows: %+v", rows.Data)
	}
	if rows.Str(0, 0) != "book" || rows.Str(0, 1) != "alice" {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestSelectImplicitJoin(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(),
		"SELECT items.name FROM items, users WHERE items.seller = users.id AND users.name = 'carol' ORDER BY items.name ASC")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 || rows.Str(0, 0) != "pen" || rows.Str(1, 0) != "rug" {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestLeftJoin(t *testing.T) {
	db := testDB(t)
	// Item "mug" has seller 5 (erin exists id 5) — all items have sellers;
	// join users->items instead: dave (id 4) sells nothing.
	rows, err := db.Query(context.Background(),
		"SELECT u.name, i.name FROM users u LEFT JOIN items i ON i.seller = u.id WHERE u.id = 4")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Str(0, 0) != "dave" || rows.Data[0][1] != nil {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestAggregates(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(),
		"SELECT COUNT(*), SUM(price), MIN(price), MAX(price), AVG(price) FROM items WHERE category = 10")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 {
		t.Fatalf("rows: %+v", rows.Data)
	}
	if rows.Int(0, 0) != 3 {
		t.Fatalf("count: %v", rows.Data[0][0])
	}
	if rows.Float(0, 1) != 51.5 {
		t.Fatalf("sum: %v", rows.Data[0][1])
	}
	if rows.Float(0, 2) != 6.0 || rows.Float(0, 3) != 30.0 {
		t.Fatalf("min/max: %+v", rows.Data[0])
	}
	if avg := rows.Float(0, 4); avg < 17.16 || avg > 17.17 {
		t.Fatalf("avg: %v", avg)
	}
}

func TestAggregateEmptyGroup(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(), "SELECT COUNT(*), MAX(price) FROM items WHERE category = 999")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Int(0, 0) != 0 || rows.Data[0][1] != nil {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestGroupBy(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(),
		"SELECT category, COUNT(*) AS n FROM items GROUP BY category ORDER BY n DESC, category ASC")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 {
		t.Fatalf("rows: %+v", rows.Data)
	}
	if rows.Int(0, 0) != 10 || rows.Int(0, 1) != 3 {
		t.Fatalf("first group: %+v", rows.Data[0])
	}
	if rows.Int(1, 0) != 20 || rows.Int(1, 1) != 2 {
		t.Fatalf("second group: %+v", rows.Data[1])
	}
}

func TestGroupByHaving(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(),
		"SELECT seller, COUNT(*) AS n FROM items GROUP BY seller HAVING COUNT(*) > 1 ORDER BY seller ASC")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Fatalf("rows: %+v", rows.Data)
	}
	if rows.Int(0, 0) != 1 || rows.Int(1, 0) != 3 {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestDistinct(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(), "SELECT DISTINCT category FROM items ORDER BY category ASC")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 || rows.Int(0, 0) != 10 || rows.Int(2, 0) != 30 {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestUpdate(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	res, err := db.Exec(ctx, "UPDATE users SET rating = rating + 10 WHERE region = ?", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Fatalf("affected: %d", res.RowsAffected)
	}
	rows, err := db.Query(ctx, "SELECT rating FROM users WHERE name = 'alice'")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Int(0, 0) != 15 {
		t.Fatalf("rating: %v", rows.Data)
	}
}

func TestUpdateIndexedColumn(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	if _, err := db.Exec(ctx, "UPDATE users SET region = 9 WHERE name = 'alice'"); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(ctx, "SELECT name FROM users WHERE region = 9")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Str(0, 0) != "alice" {
		t.Fatalf("index not updated: %+v", rows.Data)
	}
	rows, err = db.Query(ctx, "SELECT name FROM users WHERE region = 1")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Str(0, 0) != "bob" {
		t.Fatalf("stale index entry: %+v", rows.Data)
	}
}

func TestDelete(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	res, err := db.Exec(ctx, "DELETE FROM items WHERE seller = ?", 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Fatalf("affected: %d", res.RowsAffected)
	}
	if n := db.TableLen("items"); n != 4 {
		t.Fatalf("table len: %d", n)
	}
	rows, err := db.Query(ctx, "SELECT name FROM items WHERE seller = 3")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 0 {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestDeleteThenInsertReusesSlot(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	if _, err := db.Exec(ctx, "DELETE FROM items WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(ctx, "INSERT INTO items (name, seller, price, category) VALUES ('new', 1, 1.0, 10)"); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(ctx, "SELECT COUNT(*) FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Int(0, 0) != 6 {
		t.Fatalf("count: %v", rows.Data)
	}
}

func TestLikeAndIn(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	rows, err := db.Query(ctx, "SELECT name FROM items WHERE name LIKE ?", "%u%")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 { // rug, mug
		t.Fatalf("rows: %+v", rows.Data)
	}
	rows, err = db.Query(ctx, "SELECT name FROM users WHERE region IN (1, 3) ORDER BY name ASC")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 || rows.Str(0, 0) != "alice" {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestBetween(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(), "SELECT name FROM items WHERE price BETWEEN 4 AND 30 ORDER BY price ASC")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 4 || rows.Str(0, 0) != "book" || rows.Str(3, 0) != "lamp" {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestNullSemantics(t *testing.T) {
	db := New()
	db.MustCreateTable(TableSpec{Name: "t", Columns: []Column{
		{Name: "a", Type: TypeInt}, {Name: "b", Type: TypeString},
	}})
	ctx := context.Background()
	if _, err := db.Exec(ctx, "INSERT INTO t (a, b) VALUES (1, 'x'), (NULL, 'y'), (3, NULL)"); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(ctx, "SELECT b FROM t WHERE a IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 1 || rows.Str(0, 0) != "y" {
		t.Fatalf("rows: %+v", rows.Data)
	}
	// NULL never compares equal.
	rows, err = db.Query(ctx, "SELECT b FROM t WHERE a = NULL")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 0 {
		t.Fatalf("rows: %+v", rows.Data)
	}
	rows, err = db.Query(ctx, "SELECT a FROM t WHERE b IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestErrors(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	cases := []struct {
		query bool
		sql   string
	}{
		{true, "SELECT x FROM users"},
		{true, "SELECT name FROM nosuch"},
		{true, "INSERT INTO users (name) VALUES ('x')"}, // Query of a write
		{false, "SELECT name FROM users"},               // Exec of a read
		{false, "INSERT INTO users (nosuch) VALUES (1)"},
		{false, "UPDATE users SET nosuch = 1"},
		{false, "DELETE FROM nosuch"},
		{true, "SELECT name FROM users WHERE id = ?"}, // missing arg
	}
	for _, c := range cases {
		var err error
		if c.query {
			_, err = db.Query(ctx, c.sql)
		} else {
			_, err = db.Exec(ctx, c.sql)
		}
		if err == nil {
			t.Errorf("%q: expected error", c.sql)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := testDB(t)
	_, err := db.Query(context.Background(), "SELECT name FROM users, items")
	if err == nil {
		t.Fatal("expected ambiguity error")
	}
}

func TestContextCancelled(t *testing.T) {
	db := testDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Query(ctx, "SELECT name FROM users"); err == nil {
		t.Fatal("expected context error")
	}
}

func TestCreateTableValidation(t *testing.T) {
	db := New()
	cases := []TableSpec{
		{Name: "", Columns: []Column{{Name: "a", Type: TypeInt}}},
		{Name: "t"},
		{Name: "t", Columns: []Column{{Name: "a", Type: TypeInt}, {Name: "a", Type: TypeInt}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: TypeString, AutoIncrement: true}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: TypeInt}}, Indexed: []string{"zzz"}},
	}
	for i, spec := range cases {
		if err := db.CreateTable(spec); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	ok := TableSpec{Name: "t", Columns: []Column{{Name: "a", Type: TypeInt}}}
	if err := db.CreateTable(ok); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(ok); err == nil {
		t.Fatal("expected duplicate table error")
	}
}

// TestOrderedIndexDDL pins the edges of CREATE INDEX … (key, order): the
// order is one INT or TEXT column, a key keeps the order it was given, an
// ordered index may replace a plain one, and repeating a statement changes
// nothing.
func TestOrderedIndexDDL(t *testing.T) {
	ctx := context.Background()
	db := New()
	for _, sql := range []string{
		"CREATE TABLE t (id INTEGER PRIMARY KEY AUTO_INCREMENT, k INTEGER, n INTEGER, s TEXT, f REAL)",
		"INSERT INTO t (k, n, s, f) VALUES (1, 2, 'b', 0.5), (1, 1, 'a', 1.5), (2, 3, 'a', 2.5)",
		"CREATE INDEX t_k_n ON t (k, n)",
		"CREATE INDEX t_k_n ON t (k, n)",
		"CREATE INDEX t_k ON t (k)",
		"CREATE INDEX t_s ON t (s)",
		"CREATE INDEX t_s_n ON t (s, n)",
	} {
		if _, err := db.Exec(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	for _, c := range []struct{ sql, want string }{
		{"CREATE INDEX t_n_f ON t (n, f)", "cannot order an index by FLOAT column f"},
		{"CREATE INDEX t_k_n_s ON t (k, n, s)", "index on 3 columns"},
		{"CREATE INDEX t_k_s ON t (k, s)", "k is already indexed in order of n, not s"},
		{"CREATE INDEX t_s_id ON t (s, id)", "s is already indexed in order of n, not id"},
		{"CREATE INDEX t_k_x ON t (k, x)", "unknown column x"},
	} {
		if _, err := db.Exec(ctx, c.sql); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got error %v, want one saying %q", c.sql, err, c.want)
		}
	}
	if err := db.CreateTable(TableSpec{Name: "u", Columns: []Column{{Name: "k", Type: TypeInt}, {Name: "f", Type: TypeFloat}},
		Indexed: []string{"k,f"}}); err == nil || !strings.Contains(err.Error(), "FLOAT") {
		t.Errorf("a TableSpec ordering an index by a FLOAT column: got error %v", err)
	}
	tbl, err := db.lookupTable("t")
	if err != nil {
		t.Fatal(err)
	}
	n := tbl.colIdx["n"]
	if k, s := tbl.indexes[tbl.colIdx["k"]], tbl.indexes[tbl.colIdx["s"]]; k.order != n || s.order != n {
		t.Fatalf("k is ordered by column %d and s by %d, want both by n (%d)", k.order, s.order, n)
	}
	checkIndexes(t, db, "t")
	rows, err := db.Query(ctx, "SELECT n FROM t WHERE s = ? ORDER BY n DESC LIMIT 1", "a")
	if err != nil || rows.Len() != 1 || rows.Int(0, 0) != 3 {
		t.Fatalf("newest 'a' by n: %v %v", rows, err)
	}
}

func TestTableNamesAndColumns(t *testing.T) {
	db := testDB(t)
	names := db.TableNames()
	if len(names) != 2 || names[0] != "items" || names[1] != "users" {
		t.Fatalf("names: %v", names)
	}
	cols, err := db.ColumnNames("users")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 4 || cols[0] != "id" {
		t.Fatalf("cols: %v", cols)
	}
	if _, err := db.ColumnNames("nosuch"); err == nil {
		t.Fatal("expected error")
	}
}

func TestStatsCounters(t *testing.T) {
	db := testDB(t)
	before := db.Stats()
	if _, err := db.Query(context.Background(), "SELECT name FROM users"); err != nil {
		t.Fatal(err)
	}
	after := db.Stats()
	if after.Queries != before.Queries+1 {
		t.Fatalf("queries: %d -> %d", before.Queries, after.Queries)
	}
	if after.RowsScanned <= before.RowsScanned {
		t.Fatalf("rows scanned did not advance")
	}
}

func TestOrderByColumnNotSelected(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(), "SELECT name FROM users ORDER BY rating DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Str(0, 0) != "carol" {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestScalarFunctions(t *testing.T) {
	db := testDB(t)
	rows, err := db.Query(context.Background(), "SELECT UPPER(name), LENGTH(name), ABS(0 - rating) FROM users WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Str(0, 0) != "ALICE" || rows.Int(0, 1) != 5 || rows.Int(0, 2) != 5 {
		t.Fatalf("rows: %+v", rows.Data)
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if g%2 == 0 {
					if _, err := db.Query(ctx, "SELECT COUNT(*) FROM items WHERE category = ?", 10); err != nil {
						errs <- err
						return
					}
				} else {
					if _, err := db.Exec(ctx, "UPDATE items SET price = price + 1 WHERE category = ?", 10); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestRowsHelpers(t *testing.T) {
	r := &Rows{Columns: []string{"a"}, Data: [][]Value{{int64(5)}, {"xyz"}, {nil}, {2.5}}}
	if r.Int(0, 0) != 5 || r.Str(1, 0) != "xyz" || r.Str(2, 0) != "" || r.Float(3, 0) != 2.5 {
		t.Fatalf("helpers wrong: %v %v %v %v", r.Int(0, 0), r.Str(1, 0), r.Str(2, 0), r.Float(3, 0))
	}
	if r.Int(1, 0) != 0 {
		t.Fatalf("non-numeric Int should be 0")
	}
}

func TestNormalize(t *testing.T) {
	good := []any{nil, 5, int64(5), int32(5), uint(5), float32(1.5), 1.5, true, "s"}
	for _, v := range good {
		if _, err := datasource.Normalize(v); err != nil {
			t.Errorf("Normalize(%v): %v", v, err)
		}
	}
	if v, _ := datasource.Normalize(true); v != int64(1) {
		t.Errorf("true -> %v", v)
	}
	if _, err := datasource.Normalize(struct{}{}); err == nil {
		t.Error("expected error for struct")
	}
	if _, err := datasource.Normalize(uint64(1 << 63)); err == nil {
		t.Error("expected overflow error")
	}
}

func TestCompareMixedTypes(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{int64(1), int64(2), -1},
		{int64(2), int64(2), 0},
		{2.5, int64(2), 1},
		{int64(2), 2.0, 0},
		{"a", "b", -1},
		{nil, int64(0), -1},
		{int64(0), nil, 1},
		{nil, nil, 0},
		{int64(5), "5", 0},
		{"10", int64(9), 1},
	}
	for _, c := range cases {
		if got := datasource.Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestKeyStringUnifiesIntFloat(t *testing.T) {
	if datasource.KeyString(int64(5)) != datasource.KeyString(5.0) {
		t.Fatal("int/float keys differ for equal values")
	}
	if datasource.KeyString("5") == datasource.KeyString(int64(5)) {
		t.Fatal("string '5' must not collide with int 5")
	}
	if datasource.KeyString(nil) == datasource.KeyString("") {
		t.Fatal("nil must not collide with empty string")
	}
}

func TestMultiRowInsertAffected(t *testing.T) {
	db := testDB(t)
	res, err := db.Exec(context.Background(), "INSERT INTO users (name, region, rating) VALUES ('p', 1, 1), ('q', 2, 2)")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 2 {
		t.Fatalf("affected: %d", res.RowsAffected)
	}
}

func ExampleDB_Query() {
	db := New()
	db.MustCreateTable(TableSpec{
		Name: "greetings",
		Columns: []Column{
			{Name: "id", Type: TypeInt, AutoIncrement: true},
			{Name: "text", Type: TypeString},
		},
	})
	ctx := context.Background()
	if _, err := db.Exec(ctx, "INSERT INTO greetings (text) VALUES (?)", "hello"); err != nil {
		panic(err)
	}
	rows, err := db.Query(ctx, "SELECT text FROM greetings WHERE id = ?", 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(rows.Str(0, 0))
	// Output: hello
}
