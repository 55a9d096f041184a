package analysis

import (
	"reflect"
	"testing"

	"autowebcache/internal/memdb"
	"autowebcache/internal/sqlparser"
)

func TestEngineAccessors(t *testing.T) {
	db := newTestDB(t)
	e := newEngine(t, StrategyExtraQuery, db)
	if e.Strategy() != StrategyExtraQuery {
		t.Fatal("Strategy accessor")
	}
	pw, err := e.PrepareWrite(wc("UPDATE T SET a = ? WHERE b = ?", int64(1), int64(2)))
	if err != nil {
		t.Fatal(err)
	}
	if pw.Table() != "T" {
		t.Fatalf("table: %s", pw.Table())
	}
	if _, ok := e.autoIncrementColumn("T"); !ok {
		t.Fatal("auto-increment column not found via schema")
	}
	if _, ok := e.autoIncrementColumn("nosuch"); ok {
		t.Fatal("unexpected auto column")
	}
	// Engines without a schema report no auto column.
	plain := newEngine(t, StrategyWhereMatch, nil)
	if _, ok := plain.autoIncrementColumn("T"); ok {
		t.Fatal("nil schema should have no auto column")
	}
}

func TestValueRefResolve(t *testing.T) {
	args := []memdb.Value{int64(7), "x"}
	cases := []struct {
		ref  ValueRef
		want memdb.Value
		ok   bool
	}{
		{ValueRef{Known: true, IsPlaceholder: true, Index: 0}, int64(7), true},
		{ValueRef{Known: true, IsPlaceholder: true, Index: 1}, "x", true},
		{ValueRef{Known: true, IsPlaceholder: true, Index: 9}, nil, false},
		{ValueRef{Known: true, IsPlaceholder: true, Index: -1}, nil, false},
		{ValueRef{Known: true, Lit: int64(3)}, int64(3), true},
		{ValueRef{}, nil, false},
	}
	for i, c := range cases {
		got, ok := c.ref.Resolve(args)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("case %d: got %v/%v, want %v/%v", i, got, ok, c.want, c.ok)
		}
	}
}

func TestResolveColumnAmbiguity(t *testing.T) {
	db := memdb.New()
	db.MustCreateTable(memdb.TableSpec{Name: "a", Columns: []memdb.Column{
		{Name: "shared", Type: memdb.TypeInt}, {Name: "only_a", Type: memdb.TypeInt},
	}})
	db.MustCreateTable(memdb.TableSpec{Name: "b", Columns: []memdb.Column{
		{Name: "shared", Type: memdb.TypeInt}, {Name: "only_b", Type: memdb.TypeInt},
	}})
	info, err := AnalyzeTemplate("SELECT only_a, shared, only_b FROM a, b WHERE only_a = only_b", db)
	if err != nil {
		t.Fatal(err)
	}
	// only_a resolves to a; only_b to b; shared is ambiguous and attributed
	// to both tables (conservative).
	if !info.ReadCols["a"]["only_a"] || !info.ReadCols["b"]["only_b"] {
		t.Fatalf("read cols: %+v", info.ReadCols)
	}
	if !info.ReadCols["a"]["shared"] || !info.ReadCols["b"]["shared"] {
		t.Fatalf("ambiguous column not conservatively attributed: %+v", info.ReadCols)
	}
	// A qualified reference to an unknown alias is also conservative.
	info2, err := AnalyzeTemplate("SELECT x.val FROM a", db)
	if err != nil {
		t.Fatal(err)
	}
	if !info2.ReadCols["a"]["val"] {
		t.Fatalf("unknown qualifier not conservative: %+v", info2.ReadCols)
	}
}

func TestResolveColumnNilSchemaMultiTable(t *testing.T) {
	info, err := AnalyzeTemplate("SELECT x FROM a, b", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ReadCols["a"]["x"] || !info.ReadCols["b"]["x"] {
		t.Fatalf("nil schema should attribute to all tables: %+v", info.ReadCols)
	}
}

func TestQualifiedStarReadCols(t *testing.T) {
	info, err := AnalyzeTemplate("SELECT u.* FROM users u JOIN items i ON i.seller = u.id", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ReadCols["users"]["*"] {
		t.Fatalf("qualified star: %+v", info.ReadCols)
	}
	if info.ReadCols["items"]["*"] {
		t.Fatalf("star leaked to other table: %+v", info.ReadCols)
	}
}

func TestTriValueNegation(t *testing.T) {
	read := mustTemplate(t, "SELECT a FROM T WHERE b = -c")
	// -c where c known: value path through NegExpr.
	got := EvalReadPred(read, "T", nil, bindingOf(map[string]memdb.Value{"b": int64(-5), "c": int64(5)}), nil)
	if got != True {
		t.Fatalf("want True, got %v", got)
	}
	got = EvalReadPred(read, "T", nil, bindingOf(map[string]memdb.Value{"b": int64(4), "c": int64(5)}), nil)
	if got != False {
		t.Fatalf("want False, got %v", got)
	}
	// Negating a string is unknown.
	got = EvalReadPred(read, "T", nil, bindingOf(map[string]memdb.Value{"b": int64(4), "c": "s"}), nil)
	if got != Unknown {
		t.Fatalf("want Unknown, got %v", got)
	}
}

func TestRebindArgsAllNodeKinds(t *testing.T) {
	stmt, err := sqlparser.Parse(
		"SELECT a FROM T WHERE (b IN (?, 2) OR c BETWEEN ? AND 9) AND NOT (d LIKE ?) AND e IS NULL AND -f < ? AND LENGTH(g) > ?")
	if err != nil {
		t.Fatal(err)
	}
	where := stmt.(*sqlparser.SelectStmt).Where
	args := []memdb.Value{int64(1), int64(3), "p%", 2.5, int64(4)}
	var bound []memdb.Value
	out, err := rebindArgs(where, args, &bound)
	if err != nil {
		t.Fatal(err)
	}
	// Structure preserved, and each placeholder binds what it bound before.
	if out.String() != where.String() || !reflect.DeepEqual(bound, args) {
		t.Fatalf("rebound %s with %v", out.String(), bound)
	}
}

func TestEqValuesQualifiedAndReversed(t *testing.T) {
	wi := mustTemplate(t, "UPDATE T SET a = ? WHERE ? = b AND T.c = ? AND other.d = ?")
	pw := &PreparedWrite{wi: wi, whereVals: eqValues(wi, []memdb.Value{int64(0), int64(1), int64(2), int64(3)})}
	if v, _ := pw.whereBinding("b"); v != int64(1) {
		t.Fatalf("reversed equality not extracted: %+v", pw.whereVals)
	}
	if v, _ := pw.whereBinding("c"); v != int64(2) {
		t.Fatalf("qualified equality not extracted: %+v", pw.whereVals)
	}
	if _, ok := pw.whereBinding("d"); ok {
		t.Fatalf("other-table qualifier leaked: %+v", pw.whereVals)
	}
}
