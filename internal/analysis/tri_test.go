package analysis

import (
	"reflect"
	"testing"
	"testing/quick"

	"autowebcache/internal/memdb"
	"autowebcache/internal/sqlparser"
)

// triGen maps an arbitrary byte to a Tri value for quick-check inputs.
func triGen(b byte) Tri {
	switch b % 3 {
	case 0:
		return False
	case 1:
		return True
	default:
		return Unknown
	}
}

func TestTriStrings(t *testing.T) {
	if False.String() != "false" || True.String() != "true" || Unknown.String() != "unknown" {
		t.Fatal("tri strings")
	}
}

// TestTriLaws checks Kleene three-valued logic laws with testing/quick.
func TestTriLaws(t *testing.T) {
	// Double negation.
	if err := quick.Check(func(a byte) bool {
		x := triGen(a)
		return x.Not().Not() == x
	}, nil); err != nil {
		t.Error(err)
	}
	// Commutativity.
	if err := quick.Check(func(a, b byte) bool {
		x, y := triGen(a), triGen(b)
		return x.And(y) == y.And(x) && x.Or(y) == y.Or(x)
	}, nil); err != nil {
		t.Error(err)
	}
	// Associativity.
	if err := quick.Check(func(a, b, c byte) bool {
		x, y, z := triGen(a), triGen(b), triGen(c)
		return x.And(y.And(z)) == x.And(y).And(z) &&
			x.Or(y.Or(z)) == x.Or(y).Or(z)
	}, nil); err != nil {
		t.Error(err)
	}
	// De Morgan.
	if err := quick.Check(func(a, b byte) bool {
		x, y := triGen(a), triGen(b)
		return x.And(y).Not() == x.Not().Or(y.Not()) &&
			x.Or(y).Not() == x.Not().And(y.Not())
	}, nil); err != nil {
		t.Error(err)
	}
	// Dominance: False absorbs And, True absorbs Or.
	if err := quick.Check(func(a byte) bool {
		x := triGen(a)
		return x.And(False) == False && x.Or(True) == True
	}, nil); err != nil {
		t.Error(err)
	}
	// Unknown is the identity-breaking middle: And(True) and Or(False)
	// preserve the operand.
	if err := quick.Check(func(a byte) bool {
		x := triGen(a)
		return x.And(True) == x && x.Or(False) == x
	}, nil); err != nil {
		t.Error(err)
	}
}

// bindingOf builds a Binding from a map.
func bindingOf(vals map[string]memdb.Value) Binding {
	return func(col string) (memdb.Value, bool) {
		v, ok := vals[col]
		return v, ok
	}
}

func mustTemplate(t *testing.T, sql string) *TemplateInfo {
	t.Helper()
	info, err := AnalyzeTemplate(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestEvalReadPredBasic(t *testing.T) {
	read := mustTemplate(t, "SELECT a FROM T WHERE b = ? AND c > 5")
	args := []memdb.Value{int64(3)}

	// Fully known, satisfying.
	if got := EvalReadPred(read, "T", args, bindingOf(map[string]memdb.Value{"b": int64(3), "c": int64(9)}), nil); got != True {
		t.Fatalf("want True, got %v", got)
	}
	// Fully known, failing the equality.
	if got := EvalReadPred(read, "T", args, bindingOf(map[string]memdb.Value{"b": int64(4), "c": int64(9)}), nil); got != False {
		t.Fatalf("want False, got %v", got)
	}
	// Range failing.
	if got := EvalReadPred(read, "T", args, bindingOf(map[string]memdb.Value{"b": int64(3), "c": int64(2)}), nil); got != False {
		t.Fatalf("want False, got %v", got)
	}
	// c unknown: equality satisfied, range unknown.
	if got := EvalReadPred(read, "T", args, bindingOf(map[string]memdb.Value{"b": int64(3)}), nil); got != Unknown {
		t.Fatalf("want Unknown, got %v", got)
	}
	// Nil predicate (no WHERE) is True.
	all := mustTemplate(t, "SELECT a FROM T")
	if got := EvalReadPred(all, "T", nil, bindingOf(nil), nil); got != True {
		t.Fatalf("want True for no WHERE, got %v", got)
	}
}

func TestEvalReadPredOperators(t *testing.T) {
	cases := []struct {
		sql  string
		vals map[string]memdb.Value
		want Tri
	}{
		{"SELECT a FROM T WHERE b IN (1, 2, 3)", map[string]memdb.Value{"b": int64(2)}, True},
		{"SELECT a FROM T WHERE b IN (1, 2, 3)", map[string]memdb.Value{"b": int64(9)}, False},
		{"SELECT a FROM T WHERE b NOT IN (1, 2)", map[string]memdb.Value{"b": int64(9)}, True},
		{"SELECT a FROM T WHERE b BETWEEN 2 AND 4", map[string]memdb.Value{"b": int64(3)}, True},
		{"SELECT a FROM T WHERE b BETWEEN 2 AND 4", map[string]memdb.Value{"b": int64(7)}, False},
		{"SELECT a FROM T WHERE name LIKE 'wid%'", map[string]memdb.Value{"name": "widget"}, True},
		{"SELECT a FROM T WHERE name LIKE 'wid%'", map[string]memdb.Value{"name": "gadget"}, False},
		{"SELECT a FROM T WHERE b IS NULL", map[string]memdb.Value{"b": nil}, True},
		{"SELECT a FROM T WHERE b IS NOT NULL", map[string]memdb.Value{"b": nil}, False},
		{"SELECT a FROM T WHERE NOT b = 1", map[string]memdb.Value{"b": int64(1)}, False},
		{"SELECT a FROM T WHERE b = 1 OR c = 2", map[string]memdb.Value{"b": int64(1)}, True},
		{"SELECT a FROM T WHERE b = 1 OR c = 2", map[string]memdb.Value{"b": int64(0)}, Unknown},
		{"SELECT a FROM T WHERE b = NULL", map[string]memdb.Value{"b": int64(1)}, False},
		// Arithmetic is statically unknown (conservative).
		{"SELECT a FROM T WHERE b + 1 = 2", map[string]memdb.Value{"b": int64(1)}, Unknown},
	}
	for _, c := range cases {
		read := mustTemplate(t, c.sql)
		if got := EvalReadPred(read, "T", nil, bindingOf(c.vals), nil); got != c.want {
			t.Errorf("%s with %v: got %v, want %v", c.sql, c.vals, got, c.want)
		}
	}
}

// TestFreshColumnExoneratesJoins: a fresh key column compared to another
// table's column is False; compared to a known value it compares normally.
func TestFreshColumnExoneratesJoins(t *testing.T) {
	read := mustTemplate(t, "SELECT b.x FROM bids b JOIN users u ON b.user_id = u.id WHERE b.item_id = ?")
	args := []memdb.Value{int64(7)}
	fresh := map[string]bool{"id": true}
	binding := bindingOf(map[string]memdb.Value{"id": int64(999)})
	// Target: users. ON compares fresh users.id against bids.user_id.
	if got := EvalReadPredFresh(read, "users", args, binding, fresh, nil); got != False {
		t.Fatalf("fresh join should exonerate, got %v", got)
	}
	// Without freshness the same evaluation is Unknown.
	if got := EvalReadPredFresh(read, "users", args, binding, nil, nil); got != Unknown {
		t.Fatalf("non-fresh join should be Unknown, got %v", got)
	}
}

func TestFreshComparedToValue(t *testing.T) {
	read := mustTemplate(t, "SELECT a FROM users WHERE id = ?")
	fresh := map[string]bool{"id": true}
	binding := bindingOf(map[string]memdb.Value{"id": int64(999)})
	// Fresh vs literal arg compares by value: 999 != 5.
	if got := EvalReadPredFresh(read, "users", []memdb.Value{int64(5)}, binding, fresh, nil); got != False {
		t.Fatalf("want False, got %v", got)
	}
	if got := EvalReadPredFresh(read, "users", []memdb.Value{int64(999)}, binding, fresh, nil); got != True {
		t.Fatalf("want True, got %v", got)
	}
}

func TestProbesExtraction(t *testing.T) {
	info := mustTemplate(t, "SELECT i.id FROM items i JOIN users u ON i.seller = u.id WHERE i.category = ? AND u.region = ? AND i.price > ?")
	p, ok := info.Probes["items"]
	if !ok || p.Col != "category" || p.ArgIndex != 0 {
		t.Fatalf("items probe: %+v", info.Probes)
	}
	p, ok = info.Probes["users"]
	if !ok || p.Col != "region" || p.ArgIndex != 1 {
		t.Fatalf("users probe: %+v", info.Probes)
	}
	// OR-disjunctions produce no probe (not conjunctive).
	none := mustTemplate(t, "SELECT a FROM T WHERE b = ? OR c = ?")
	if len(none.Probes) != 0 {
		t.Fatalf("unexpected probes: %+v", none.Probes)
	}
	// Literal equalities are not probes (no dynamic argument).
	lit := mustTemplate(t, "SELECT a FROM T WHERE b = 5")
	if len(lit.Probes) != 0 {
		t.Fatalf("literal should not probe: %+v", lit.Probes)
	}
}

func TestProbeKeysForWrites(t *testing.T) {
	db := newTestDB(t)
	e := newEngine(t, StrategyWhereMatch, db)

	// UPDATE with eq WHERE on the probed column.
	pw, err := e.PrepareWrite(wc("UPDATE T SET a = ? WHERE b = ?", int64(1), int64(4)))
	if err != nil {
		t.Fatal(err)
	}
	keys, ok := pw.ProbeKeys("b")
	if !ok || len(keys) != 1 || keys[0] != ProbeKey(int64(4)) {
		t.Fatalf("keys: %v ok=%v", keys, ok)
	}
	// Probing a column the WHERE does not constrain is unbounded.
	if _, ok := pw.ProbeKeys("d"); ok {
		t.Fatal("unconstrained column should be unbounded")
	}
	// UPDATE that SETs the probed column includes the new value.
	pw2, err := e.PrepareWrite(wc("UPDATE T SET b = ? WHERE b = ?", int64(9), int64(4)))
	if err != nil {
		t.Fatal(err)
	}
	keys, ok = pw2.ProbeKeys("b")
	if !ok || len(keys) != 2 {
		t.Fatalf("keys: %v ok=%v", keys, ok)
	}
	// INSERT with an explicit value.
	pw3, err := e.PrepareWrite(wc("INSERT INTO T (a, b) VALUES (?, ?)", int64(1), int64(6)))
	if err != nil {
		t.Fatal(err)
	}
	keys, ok = pw3.ProbeKeys("b")
	if !ok || len(keys) != 1 || keys[0] != ProbeKey(int64(6)) {
		t.Fatalf("insert keys: %v ok=%v", keys, ok)
	}
	// INSERT omitting the column is unbounded.
	if _, ok := pw3.ProbeKeys("c"); ok {
		t.Fatal("omitted insert column should be unbounded")
	}
	// PrepareWrite on a SELECT is an error.
	if _, err := e.PrepareWrite(wc("SELECT a FROM T")); err == nil {
		t.Fatal("expected error")
	}
}

func TestProbeKeysWithAffectedRows(t *testing.T) {
	db := newTestDB(t)
	e := newEngine(t, StrategyExtraQuery, db)
	cap, err := e.CaptureWrite(t.Context(), db, Query{
		SQL:  "UPDATE T SET a = ? WHERE d = ?",
		Args: []memdb.Value{int64(0), int64(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	pw, err := e.PrepareWrite(cap)
	if err != nil {
		t.Fatal(err)
	}
	// The affected rows (d = 1: i = 1, 8, 15) have b values 1, 3, 0.
	keys, ok := pw.ProbeKeys("b")
	if !ok {
		t.Fatal("captured write should bound b")
	}
	want := map[string]bool{ProbeKey(int64(1)): true, ProbeKey(int64(3)): true, ProbeKey(int64(0)): true}
	if len(keys) != len(want) {
		t.Fatalf("keys: %v", keys)
	}
	for _, k := range keys {
		if !want[k] {
			t.Fatalf("unexpected key %q", k)
		}
	}
}

func TestProbeKeyNumericStrings(t *testing.T) {
	if ProbeKey(int64(5)) != ProbeKey("5") {
		t.Fatal("numeric string must share the int key (memdb.Compare equality)")
	}
	if ProbeKey(5.0) != ProbeKey(int64(5)) {
		t.Fatal("float and int keys must match for integral values")
	}
	if ProbeKey("abc") == ProbeKey("5") {
		t.Fatal("distinct strings must differ")
	}
}

// TestRebindArgs checks the renumbering the extra query uses: the WHERE of
// a write, whose placeholders follow the SET list's, becomes a standalone
// fragment whose placeholders count from zero and bind the same values.
func TestRebindArgs(t *testing.T) {
	stmt, err := sqlparser.Parse("UPDATE T SET a = ? WHERE b = ? AND name = ? AND f = ? AND z = ?")
	if err != nil {
		t.Fatal(err)
	}
	where := stmt.(*sqlparser.UpdateStmt).Where
	var bound []memdb.Value
	out, err := rebindArgs(where, []memdb.Value{int64(0), int64(5), "x'y", 2.5, nil}, &bound)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), "b = ? AND name = ? AND f = ? AND z = ?"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	if want := []memdb.Value{int64(5), "x'y", 2.5, nil}; !reflect.DeepEqual(bound, want) {
		t.Fatalf("bound %v, want %v", bound, want)
	}
	sqlparser.WalkExprs(out, func(e sqlparser.Expr) bool {
		if p, ok := e.(*sqlparser.Placeholder); ok && (p.Index < 0 || p.Index >= len(bound)) {
			t.Errorf("placeholder %d out of the bound range", p.Index)
		}
		return true
	})
	if _, err := rebindArgs(where, []memdb.Value{int64(1)}, &bound); err == nil {
		t.Fatal("expected out-of-range error")
	}
}
