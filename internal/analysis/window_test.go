package analysis

import (
	"context"
	"reflect"
	"testing"

	"autowebcache/internal/datasource"
	"autowebcache/internal/memdb"
)

// windowRead shows, on newTestDB, the rows with b = 1 (a = 1, 6, 11, 16;
// ids 2, 7, 12, 17) ordered by a: LIMIT 2 shows ids 2 and 7 and is full.
const windowRead = "SELECT id, a, c FROM T WHERE b = ? ORDER BY a ASC LIMIT ?"

// decideWindow runs read on a fresh test database and records its window,
// captures and applies the write as the weave does, and returns the
// analysis verdict with and without the window, checking it against the
// read's rows after the write.
func decideWindow(t *testing.T, s Strategy, db *memdb.DB, read Query, write string, args ...datasource.Value) (hit, plain bool) {
	t.Helper()
	ctx := context.Background()
	e := newEngine(t, s, db)
	before, err := db.Query(ctx, read.SQL, read.Args...)
	if err != nil {
		t.Fatal(err)
	}
	info, err := e.Template(read.SQL)
	if err != nil {
		t.Fatal(err)
	}
	read.Window = info.WindowOf(read.Args, before)
	w, err := e.CaptureWrite(ctx, db, Query{SQL: write, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(ctx, write, args...)
	if err != nil {
		t.Fatal(err)
	}
	if wi, _ := e.Template(write); wi.Kind == KindInsert {
		w.AutoID, w.HasAutoID = res.LastInsertID, true
		if err := e.CaptureJoined(ctx, db, &w); err != nil {
			t.Fatal(err)
		}
	}
	if hit, err = e.Intersects(read, w); err != nil {
		t.Fatal(err)
	}
	if plain, err = e.Intersects(Query{SQL: read.SQL, Args: read.Args}, w); err != nil {
		t.Fatal(err)
	}
	after, err := db.Query(ctx, read.SQL, read.Args...)
	if err != nil {
		t.Fatal(err)
	}
	if !hit && !reflect.DeepEqual(before.Data, after.Data) {
		t.Fatalf("%s %v spared %s whose rows moved %v -> %v", write, args, read.SQL, before.Data, after.Data)
	}
	return hit, plain
}

func TestWindowRule(t *testing.T) {
	full := q(windowRead, int64(1), int64(2))
	open := q(windowRead, int64(1), int64(10))
	cases := []struct {
		name   string
		s      Strategy
		read   Query
		write  string
		args   []datasource.Value
		spared bool
	}{
		{"update unshown row, key from pre-image", StrategyExtraQuery, full, "UPDATE T SET c = ? WHERE id = ?", []datasource.Value{int64(9), int64(12)}, true},
		{"update unshown row, key from WHERE", StrategyWhereMatch, full, "UPDATE T SET c = ? WHERE id = ?", []datasource.Value{int64(9), int64(12)}, true},
		{"update unshown row of an open window", StrategyExtraQuery, q(windowRead, int64(1), int64(3)), "UPDATE T SET c = ? WHERE id = ?", []datasource.Value{int64(9), int64(17)}, true},
		{"update shown row", StrategyExtraQuery, full, "UPDATE T SET c = ? WHERE id = ?", []datasource.Value{int64(9), int64(7)}, false},
		{"update ORDER BY column", StrategyExtraQuery, full, "UPDATE T SET a = ? WHERE id = ?", []datasource.Value{int64(0), int64(12)}, false},
		{"update WHERE column", StrategyExtraQuery, full, "UPDATE T SET b = ? WHERE id = ?", []datasource.Value{int64(2), int64(7)}, false},
		{"update by another column: keys unknown", StrategyWhereMatch, full, "UPDATE T SET c = ? WHERE a = ?", []datasource.Value{int64(9), int64(11)}, false},
		{"insert after a full window", StrategyExtraQuery, full, "INSERT INTO T (a, b) VALUES (?, ?)", []datasource.Value{int64(100), int64(1)}, true},
		{"insert after a full window, WhereMatch", StrategyWhereMatch, full, "INSERT INTO T (a, b) VALUES (?, ?)", []datasource.Value{int64(100), int64(1)}, true},
		{"insert tying the last row", StrategyExtraQuery, full, "INSERT INTO T (a, b) VALUES (?, ?)", []datasource.Value{int64(6), int64(1)}, false},
		{"insert inside the window", StrategyExtraQuery, full, "INSERT INTO T (a, b) VALUES (?, ?)", []datasource.Value{int64(3), int64(1)}, false},
		{"insert of another type than shown", StrategyExtraQuery, full, "INSERT INTO T (a, b) VALUES (?, ?)", []datasource.Value{100.5, int64(1)}, false},
		{"insert without the ORDER BY value", StrategyExtraQuery, full, "INSERT INTO T (b) VALUES (?)", []datasource.Value{int64(1)}, false},
		{"insert after an open window", StrategyExtraQuery, open, "INSERT INTO T (a, b) VALUES (?, ?)", []datasource.Value{int64(100), int64(1)}, false},
		{"delete after a full window", StrategyExtraQuery, full, "DELETE FROM T WHERE id = ?", []datasource.Value{int64(17)}, true},
		{"delete without a pre-image", StrategyWhereMatch, full, "DELETE FROM T WHERE id = ?", []datasource.Value{int64(17)}, false},
		{"delete of the last row shown", StrategyExtraQuery, full, "DELETE FROM T WHERE id = ?", []datasource.Value{int64(7)}, false},
		{"ColumnOnly ignores windows", StrategyColumnOnly, full, "UPDATE T SET c = ? WHERE id = ?", []datasource.Value{int64(9), int64(12)}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hit, plain := decideWindow(t, tc.s, newTestDB(t), tc.read, tc.write, tc.args...)
			if !plain {
				t.Fatal("the value test alone spares the write: the case tests nothing")
			}
			if spared := !hit; spared != tc.spared {
				t.Fatalf("spared = %v, want %v", spared, tc.spared)
			}
		})
	}
}

// TestWindowedTemplates: only reads whose result shows their window record
// one.
func TestWindowedTemplates(t *testing.T) {
	db := newTestDB(t)
	db.MustCreateTable(memdb.TableSpec{Name: "U", Columns: []memdb.Column{
		{Name: "uid", Type: memdb.TypeInt, AutoIncrement: true}, {Name: "region", Type: memdb.TypeInt}}})
	e := newEngine(t, StrategyExtraQuery, db)
	for sql, want := range map[string]bool{
		windowRead: true,
		"SELECT id, a FROM T JOIN U ON T.b = U.uid WHERE U.region = ? ORDER BY T.a DESC, T.id ASC LIMIT ? OFFSET ?": true,
		"SELECT id, a FROM T WHERE b = ? ORDER BY a ASC":                                                            false,
		"SELECT id FROM T WHERE b = ? ORDER BY a ASC LIMIT ?":                                                       false,
		"SELECT * FROM T WHERE b = ? ORDER BY a ASC LIMIT ?":                                                        false,
		"SELECT DISTINCT id, a FROM T ORDER BY a ASC LIMIT ?":                                                       false,
		"SELECT b, COUNT(id) AS n FROM T GROUP BY b ORDER BY b ASC LIMIT ?":                                         false,
		"SELECT id, a FROM T LEFT JOIN U ON T.b = U.uid ORDER BY a ASC LIMIT ?":                                     false,
		"SELECT x.id, x.a FROM T x JOIN T y ON x.b = y.id ORDER BY x.a ASC LIMIT ?":                                 false,
		"SELECT id, a FROM T WHERE b IN (SELECT uid FROM U WHERE region = ?) ORDER BY a ASC LIMIT ?":                false,
	} {
		info, err := e.Template(sql)
		if err != nil {
			t.Fatal(err)
		}
		if info.Windowed() != want {
			t.Errorf("Windowed(%s) = %v, want %v", sql, info.Windowed(), want)
		}
	}
}

// TestInsertJoinedRow: a windowed read joining the written table to
// another by key and constraining the other table is decided by the row
// the new one joins, which AC-extraQuery reads after the insert.
func TestInsertJoinedRow(t *testing.T) {
	newDB := func(t *testing.T) *memdb.DB {
		db := newTestDB(t)
		db.MustCreateTable(memdb.TableSpec{Name: "U", Columns: []memdb.Column{
			{Name: "uid", Type: memdb.TypeInt, AutoIncrement: true}, {Name: "region", Type: memdb.TypeInt}}})
		for _, region := range []int64{1, 2} {
			if _, err := db.Exec(context.Background(), "INSERT INTO U (region) VALUES (?)", region); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	read := func(region int64) Query {
		return q("SELECT T.id, T.a FROM T JOIN U ON T.b = U.uid WHERE U.region = ? ORDER BY T.a ASC LIMIT ?", region, int64(10))
	}
	const insert = "INSERT INTO T (a, b) VALUES (?, ?)"
	// The new row's owner, uid 2, is in region 2.
	if hit, _ := decideWindow(t, StrategyExtraQuery, newDB(t), read(1), insert, int64(5), int64(2)); hit {
		t.Error("an insert owned in region 2 removed region 1's page")
	}
	if hit, _ := decideWindow(t, StrategyExtraQuery, newDB(t), read(2), insert, int64(5), int64(2)); !hit {
		t.Error("an insert owned in region 2 kept region 2's page")
	}
	if hit, _ := decideWindow(t, StrategyWhereMatch, newDB(t), read(1), insert, int64(5), int64(2)); !hit {
		t.Error("WhereMatch, which reads no joined row, spared the page")
	}
}

func TestWindowSame(t *testing.T) {
	db := newTestDB(t)
	e := newEngine(t, StrategyExtraQuery, db)
	info, err := e.Template(windowRead)
	if err != nil {
		t.Fatal(err)
	}
	run := func(limit int64) *Window {
		args := []datasource.Value{int64(1), limit}
		rows, err := db.Query(context.Background(), windowRead, args...)
		if err != nil {
			t.Fatal(err)
		}
		return info.WindowOf(args, rows)
	}
	a, b, other := run(2), run(2), run(3)
	if !a.Same(b) || a.Same(other) || a.Same(nil) || (*Window)(nil).Same(nil) {
		t.Fatalf("Same: equal %v, different %v, nil %v", a.Same(b), a.Same(other), a.Same(nil))
	}
}
