package memdb

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// probeRows are the rows of TestIndexProbeMatchesScan: per column, values
// an equality can reach through more than one representation — integers
// past 2^53, floats of 1e16 and above, numeric and padded strings — and
// NULLs. Column n holds a NaN, which equals every number.
var probeRows = [][]any{
	// i (INT), f (FLOAT), n (FLOAT), s (TEXT)
	{2, 2.0, 2.0, "2"},
	{2, 2.5, math.NaN(), "2.0"},
	{int64(1e16), 1e16, 1e16, " 2"},
	{int64(1e16) + 1, 1e16, 0.0, "10000000000000000"},
	{int64(1 << 53), 1e16, nil, "1e16"},
	{int64(1<<53) + 1, 1e17, 3.0, "abc"},
	{-7, -0.0, -1.5, ""},
	{0, 0.0, 2.5, "2"},
	{nil, nil, 1e16, nil},
	{math.MaxInt64, 9007199254740992.0, 2.0, "NaN"},
}

// probeArgs are the arguments compared against every column.
var probeArgs = []any{
	int64(2), int64(0), int64(1e16), int64(1e16) + 1, int64(1 << 53),
	2.0, 2.5, 1e16, 9007199254740992.0, -0.0, math.NaN(), math.Inf(1),
	"2", "2.0", " 2", "1e16", "10000000000000000", "abc", "", "NaN",
	nil,
}

// TestIndexProbeMatchesScan checks that an index answers an equality or an
// IN exactly as a scan under datasource.Equal does: every SELECT, UPDATE
// and DELETE over an indexed table returns or affects the same rows as on
// an unindexed twin holding the same rows, for every pairing of column
// type and argument type.
func TestIndexProbeMatchesScan(t *testing.T) {
	ctx := context.Background()
	setup := func(t *testing.T) *DB {
		t.Helper()
		db := New()
		cols := []Column{
			{Name: "id", Type: TypeInt, AutoIncrement: true},
			{Name: "i", Type: TypeInt},
			{Name: "f", Type: TypeFloat},
			{Name: "n", Type: TypeFloat},
			{Name: "s", Type: TypeString},
			{Name: "tag", Type: TypeInt},
		}
		db.MustCreateTable(TableSpec{Name: "ix", Columns: cols, Indexed: []string{"i", "f", "n", "s"}})
		db.MustCreateTable(TableSpec{Name: "scan", Columns: cols})
		// src feeds IN-subqueries one argument each, in the column of its
		// own type, so the subquery yields the argument unconverted.
		db.MustCreateTable(TableSpec{Name: "src", Columns: []Column{
			{Name: "k", Type: TypeInt}, {Name: "vi", Type: TypeInt}, {Name: "vf", Type: TypeFloat}, {Name: "vs", Type: TypeString},
		}})
		for _, tbl := range []string{"ix", "scan"} {
			for _, r := range probeRows {
				if _, err := db.Exec(ctx, "INSERT INTO "+tbl+" (i, f, n, s, tag) VALUES (?, ?, ?, ?, 0)", r...); err != nil {
					t.Fatal(err)
				}
			}
		}
		for k, a := range probeArgs {
			if _, err := db.Exec(ctx, "INSERT INTO src (k, "+srcColumn(a)+") VALUES (?, ?)", k, a); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	// same runs sql (with %s for the table) on both tables and compares.
	same := func(t *testing.T, db *DB, sql string, args ...any) {
		t.Helper()
		var got [2][][]Value
		for i, tbl := range []string{"ix", "scan"} {
			rows, err := db.Query(ctx, fmt.Sprintf(sql, tbl), args...)
			if err != nil {
				t.Fatalf("%s: %v", fmt.Sprintf(sql, tbl), err)
			}
			got[i] = rows.Data
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%q args %#v: indexed %v, scan %v", sql, args, got[0], got[1])
		}
	}
	affect := func(t *testing.T, db *DB, sql string, args ...any) {
		t.Helper()
		var n [2]int64
		for i, tbl := range []string{"ix", "scan"} {
			res, err := db.Exec(ctx, fmt.Sprintf(sql, tbl), args...)
			if err != nil {
				t.Fatalf("%s: %v", fmt.Sprintf(sql, tbl), err)
			}
			n[i] = res.RowsAffected
		}
		if n[0] != n[1] {
			t.Errorf("%q args %#v: indexed affects %d rows, scan %d", sql, args, n[0], n[1])
		}
		same(t, db, "SELECT id, tag FROM %s ORDER BY id")
	}
	for _, col := range []string{"i", "f", "n", "s"} {
		for j, a := range probeArgs {
			t.Run(fmt.Sprintf("%s=%#v", col, a), func(t *testing.T) {
				db := setup(t)
				b := probeArgs[(j+1)%len(probeArgs)]
				same(t, db, "SELECT id FROM %s WHERE "+col+" = ? ORDER BY id", a)
				same(t, db, "SELECT id FROM %s WHERE "+col+" IN (?, ?) ORDER BY id", a, b)
				same(t, db, "SELECT id FROM %s WHERE "+col+" IN (SELECT "+srcColumn(a)+" FROM src WHERE k = ?) ORDER BY id", j)
				affect(t, db, "UPDATE %s SET tag = tag + 1 WHERE "+col+" = ?", a)
				affect(t, db, "DELETE FROM %s WHERE "+col+" = ?", a)
			})
		}
	}

	// The probe is used where it is exact: the indexed table visits only
	// the matching rows.
	db := setup(t)
	visited := func(tbl string) uint64 {
		before := db.Stats().RowsScanned
		if _, err := db.Query(ctx, "SELECT id FROM "+tbl+" WHERE i = ?", "2"); err != nil {
			t.Fatal(err)
		}
		return db.Stats().RowsScanned - before
	}
	if ix, scan := visited("ix"), visited("scan"); ix != 2 || scan != uint64(len(probeRows)) {
		t.Errorf("i = '2' visits %d rows indexed and %d scanned, want 2 and %d", ix, scan, len(probeRows))
	}
}

// srcColumn names the src column holding a value of a's type.
func srcColumn(a any) string {
	switch a.(type) {
	case int64:
		return "vi"
	case float64:
		return "vf"
	}
	return "vs"
}

// TestCountFromBucket: a one-table SELECT COUNT(*) whose only conjunct is an
// equality its index answers exactly is answered from the bucket's length,
// visiting no row, and counts what a scan of an unindexed twin counts for
// every pairing of column type and argument type — after deletes too. A
// probe that is not exact scans.
func TestCountFromBucket(t *testing.T) {
	ctx := context.Background()
	db := New()
	cols := []Column{
		{Name: "id", Type: TypeInt, AutoIncrement: true},
		{Name: "i", Type: TypeInt},
		{Name: "f", Type: TypeFloat},
		{Name: "n", Type: TypeFloat},
		{Name: "s", Type: TypeString},
	}
	db.MustCreateTable(TableSpec{Name: "ix", Columns: cols, Indexed: []string{"i", "f", "n", "s"}})
	db.MustCreateTable(TableSpec{Name: "scan", Columns: cols})
	for _, tbl := range []string{"ix", "scan"} {
		for _, r := range append(probeRows, probeRows...) {
			if _, err := db.Exec(ctx, "INSERT INTO "+tbl+" (i, f, n, s) VALUES (?, ?, ?, ?)", r...); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.Exec(ctx, "DELETE FROM "+tbl+" WHERE id > ?", len(probeRows)+3); err != nil {
			t.Fatal(err)
		}
	}
	count := func(sql string, arg any) (Value, uint64) {
		t.Helper()
		before := db.Stats().RowsScanned
		rows, err := db.Query(ctx, sql, arg)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if len(rows.Data) != 1 {
			t.Fatalf("%s: %d rows", sql, len(rows.Data))
		}
		return rows.Data[0][0], db.Stats().RowsScanned - before
	}
	exact := 0
	for _, col := range []string{"i", "f", "n", "s"} {
		for _, a := range probeArgs {
			got, visited := count("SELECT COUNT(*) AS n FROM ix WHERE "+col+" = ?", a)
			want, _ := count("SELECT COUNT(*) AS n FROM scan WHERE "+col+" = ?", a)
			if got != want {
				t.Errorf("%s = %#v: indexed counts %v, scan %v", col, a, got, want)
			}
			if visited == 0 {
				exact++
			}
		}
	}
	if exact == 0 {
		t.Fatal("no count was answered from a bucket")
	}
	// An exact probe visits nothing; an inexact one (a fraction against the
	// INT column) visits every live row.
	if n, visited := count("SELECT COUNT(*) FROM ix WHERE i = ?", int64(2)); n != int64(4) || visited != 0 {
		t.Errorf("i = 2 counts %v visiting %d rows, want 4 visiting 0", n, visited)
	}
	if n, visited := count("SELECT COUNT(*) FROM ix WHERE i = ?", 2.5); n != int64(0) || visited != uint64(len(probeRows)+3) {
		t.Errorf("i = 2.5 counts %v visiting %d rows, want 0 visiting %d", n, visited, len(probeRows)+3)
	}
}
