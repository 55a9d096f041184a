package sqlparser

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	s, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return s
}

func TestParseSimpleSelect(t *testing.T) {
	s := mustParse(t, "SELECT name FROM users WHERE id = 5").(*SelectStmt)
	if len(s.Items) != 1 || s.Items[0].Expr.(*ColumnRef).Name != "name" {
		t.Fatalf("bad select items: %+v", s.Items)
	}
	if len(s.From) != 1 || s.From[0].Name != "users" {
		t.Fatalf("bad from: %+v", s.From)
	}
	w := s.Where.(*BinaryExpr)
	if w.Op != OpEq {
		t.Fatalf("want OpEq, got %v", w.Op)
	}
	if w.Left.(*ColumnRef).Name != "id" {
		t.Fatalf("bad where left: %v", w.Left)
	}
	if w.Right.(*Literal).Int != 5 {
		t.Fatalf("bad where right: %v", w.Right)
	}
}

func TestParseSelectStar(t *testing.T) {
	s := mustParse(t, "select * from items").(*SelectStmt)
	if !s.Items[0].Star {
		t.Fatal("expected star item")
	}
}

func TestParseQualifiedStar(t *testing.T) {
	s := mustParse(t, "SELECT u.*, i.name FROM users u, items i").(*SelectStmt)
	if !s.Items[0].Star || s.Items[0].Table != "u" {
		t.Fatalf("bad qualified star: %+v", s.Items[0])
	}
	if s.From[1].Alias != "i" {
		t.Fatalf("bad alias: %+v", s.From[1])
	}
}

func TestParsePlaceholders(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE b = ? AND c = ?")
	if n := NumPlaceholders(s); n != 2 {
		t.Fatalf("NumPlaceholders = %d, want 2", n)
	}
	sel := s.(*SelectStmt)
	and := sel.Where.(*BinaryExpr)
	p0 := and.Left.(*BinaryExpr).Right.(*Placeholder)
	p1 := and.Right.(*BinaryExpr).Right.(*Placeholder)
	if p0.Index != 0 || p1.Index != 1 {
		t.Fatalf("placeholder indices = %d, %d", p0.Index, p1.Index)
	}
}

func TestParseJoin(t *testing.T) {
	s := mustParse(t, "SELECT i.name FROM items i JOIN users u ON i.seller = u.id WHERE u.region = ?").(*SelectStmt)
	if len(s.Joins) != 1 {
		t.Fatalf("joins = %+v", s.Joins)
	}
	j := s.Joins[0]
	if j.Kind != JoinInner || j.Table.RefName() != "u" {
		t.Fatalf("bad join: %+v", j)
	}
	on := j.On.(*BinaryExpr)
	if on.Left.(*ColumnRef).Table != "i" || on.Right.(*ColumnRef).Table != "u" {
		t.Fatalf("bad on: %v", j.On)
	}
}

func TestParseLeftJoin(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t LEFT OUTER JOIN s ON t.x = s.y").(*SelectStmt)
	if s.Joins[0].Kind != JoinLeft {
		t.Fatalf("want left join, got %v", s.Joins[0].Kind)
	}
}

func TestParseGroupOrderLimit(t *testing.T) {
	s := mustParse(t, "SELECT item_id, COUNT(*) AS n FROM order_line GROUP BY item_id ORDER BY n DESC, item_id LIMIT 50").(*SelectStmt)
	if len(s.GroupBy) != 1 {
		t.Fatalf("group by: %+v", s.GroupBy)
	}
	if s.Items[1].Alias != "n" {
		t.Fatalf("alias: %+v", s.Items[1])
	}
	fe := s.Items[1].Expr.(*FuncExpr)
	if fe.Name != "COUNT" || !fe.Star {
		t.Fatalf("func: %+v", fe)
	}
	if !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Fatalf("order: %+v", s.OrderBy)
	}
	if s.Limit.Count.(*Literal).Int != 50 {
		t.Fatalf("limit: %+v", s.Limit)
	}
}

func TestParseLimitOffsetForms(t *testing.T) {
	a := mustParse(t, "SELECT a FROM t LIMIT 10 OFFSET 20").(*SelectStmt)
	if a.Limit.Count.(*Literal).Int != 10 || a.Limit.Offset.(*Literal).Int != 20 {
		t.Fatalf("limit/offset: %+v", a.Limit)
	}
	b := mustParse(t, "SELECT a FROM t LIMIT 20, 10").(*SelectStmt)
	if b.Limit.Count.(*Literal).Int != 10 || b.Limit.Offset.(*Literal).Int != 20 {
		t.Fatalf("mysql limit: %+v", b.Limit)
	}
}

func TestParseInsert(t *testing.T) {
	s := mustParse(t, "INSERT INTO bids (user_id, item_id, bid) VALUES (?, ?, ?)").(*InsertStmt)
	if s.Table != "bids" || len(s.Columns) != 3 || len(s.Rows) != 1 || len(s.Rows[0]) != 3 {
		t.Fatalf("insert: %+v", s)
	}
}

func TestParseInsertMultiRow(t *testing.T) {
	s := mustParse(t, "INSERT INTO t (a) VALUES (1), (2), (3)").(*InsertStmt)
	if len(s.Rows) != 3 {
		t.Fatalf("rows: %+v", s.Rows)
	}
}

func TestParseUpdate(t *testing.T) {
	s := mustParse(t, "UPDATE items SET nb_of_bids = nb_of_bids + 1, max_bid = ? WHERE id = ?").(*UpdateStmt)
	if s.Table != "items" || len(s.Set) != 2 {
		t.Fatalf("update: %+v", s)
	}
	add := s.Set[0].Value.(*BinaryExpr)
	if add.Op != OpAdd {
		t.Fatalf("set expr: %v", s.Set[0].Value)
	}
}

func TestParseDelete(t *testing.T) {
	s := mustParse(t, "DELETE FROM shopping_cart_line WHERE scl_sc_id = ?").(*DeleteStmt)
	if s.Table != "shopping_cart_line" || s.Where == nil {
		t.Fatalf("delete: %+v", s)
	}
}

func TestParsePredicates(t *testing.T) {
	cases := []string{
		"SELECT a FROM t WHERE b IN (1, 2, 3)",
		"SELECT a FROM t WHERE b NOT IN (?, ?)",
		"SELECT a FROM t WHERE b BETWEEN 1 AND 10",
		"SELECT a FROM t WHERE b NOT BETWEEN ? AND ?",
		"SELECT a FROM t WHERE name LIKE '%shoe%'",
		"SELECT a FROM t WHERE name NOT LIKE ?",
		"SELECT a FROM t WHERE b IS NULL",
		"SELECT a FROM t WHERE b IS NOT NULL",
		"SELECT a FROM t WHERE NOT b = 1",
		"SELECT a FROM t WHERE (b = 1 OR c = 2) AND d = 3",
	}
	for _, sql := range cases {
		mustParse(t, sql)
	}
}

func TestParseStringEscapes(t *testing.T) {
	s := mustParse(t, `SELECT a FROM t WHERE b = 'it''s ok'`).(*SelectStmt)
	lit := s.Where.(*BinaryExpr).Right.(*Literal)
	if lit.Str != "it's ok" {
		t.Fatalf("got %q", lit.Str)
	}
	s2 := mustParse(t, `SELECT a FROM t WHERE b = 'a\'b'`).(*SelectStmt)
	if got := s2.Where.(*BinaryExpr).Right.(*Literal).Str; got != "a'b" {
		t.Fatalf("got %q", got)
	}
}

func TestParseNumbers(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE b = 3.25 AND c = -7 AND d = 1e3").(*SelectStmt)
	var lits []*Literal
	WalkExprs(s.Where, func(e Expr) bool {
		if l, ok := e.(*Literal); ok {
			lits = append(lits, l)
		}
		return true
	})
	if len(lits) != 3 {
		t.Fatalf("lits: %v", lits)
	}
	if lits[0].Float != 3.25 || lits[1].Int != -7 || lits[2].Float != 1000 {
		t.Fatalf("values: %v %v %v", lits[0], lits[1], lits[2])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE b =",
		"INSERT INTO t VALUES",
		"UPDATE t SET",
		"DELETE FROM",
		"SELECT a FROM t WHERE b = 'unterminated",
		"SELECT a FROM t WHERE b @ 1",
		"SELECT a FROM t GROUP ORDER",
		"SELECT a FROM t; SELECT b FROM t",
		"DROP TABLE t",
	}
	for _, sql := range cases {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q): expected error", sql)
		}
	}
}

func TestTrailingSemicolon(t *testing.T) {
	mustParse(t, "SELECT a FROM t;")
}

func TestCanonicalNormalises(t *testing.T) {
	a, err := Canonical("select  a from t where b=1 and c=2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonical("SELECT a FROM t WHERE (b = 1) AND (c = 2)")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("canonical mismatch:\n%s\n%s", a, b)
	}
}

func TestParameterize(t *testing.T) {
	stmt, vals, err := Parameterize("SELECT a FROM t WHERE b = 5 AND c = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != int64(5) || vals[1] != "x" {
		t.Fatalf("vals: %#v", vals)
	}
	want := "SELECT a FROM t WHERE b = ? AND c = ?"
	if got := stmt.String(); got != want {
		t.Fatalf("template = %q, want %q", got, want)
	}
}

func TestParameterizeKeepsExistingPlaceholders(t *testing.T) {
	stmt, vals, err := Parameterize("UPDATE t SET a = ? WHERE b = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != nil || vals[1] != int64(3) {
		t.Fatalf("vals: %#v", vals)
	}
	if got := stmt.String(); got != "UPDATE t SET a = ? WHERE b = ?" {
		t.Fatalf("template = %q", got)
	}
}

// TestParseCreateIndexTwoColumns checks the ordered-index DDL a
// two-column TableSpec entry renders: both columns, in order, survive the
// round trip through String.
func TestParseCreateIndexTwoColumns(t *testing.T) {
	const sql = "CREATE INDEX IF NOT EXISTS idx_bids_user_id_date ON bids (user_id, date)"
	s := mustParse(t, sql).(*CreateIndexStmt)
	want := &CreateIndexStmt{Name: "idx_bids_user_id_date", IfNotExists: true, Table: "bids", Columns: []string{"user_id", "date"}}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("parsed %#v, want %#v", s, want)
	}
	if again := mustParse(t, s.String()); !reflect.DeepEqual(again, want) || again.String() != s.String() {
		t.Fatalf("round trip of %q: %q parses to %#v", sql, s.String(), again)
	}
}

// TestRoundTrip checks Parse(String(stmt)) == stmt for a corpus of
// representative application queries.
func TestRoundTrip(t *testing.T) {
	corpus := []string{
		"SELECT * FROM users WHERE id = ?",
		"SELECT name, nickname FROM users WHERE region = ? ORDER BY nickname ASC LIMIT 25",
		"SELECT i.id, i.name, MAX(b.bid) AS top FROM items i JOIN bids b ON b.item_id = i.id WHERE i.category = ? GROUP BY i.id, i.name ORDER BY top DESC LIMIT 20",
		"INSERT INTO comments (from_user_id, to_user_id, item_id, rating, comment) VALUES (?, ?, ?, ?, ?)",
		"UPDATE users SET rating = rating + ? WHERE id = ?",
		"DELETE FROM shopping_cart_line WHERE scl_sc_id = ? AND scl_i_id = ?",
		"SELECT a FROM t WHERE b = 1 OR c = 2 AND d = 3",
		"SELECT a FROM t WHERE (b = 1 OR c = 2) AND d = 3",
		"SELECT COUNT(DISTINCT user_id) FROM bids WHERE item_id = ?",
		"SELECT a FROM t WHERE b BETWEEN ? AND ? AND c LIKE ?",
		"SELECT a FROM t WHERE b IS NOT NULL AND c NOT IN (1, 2)",
		"SELECT a + b * c FROM t WHERE a - b < c / d",
	}
	for _, sql := range corpus {
		s1 := mustParse(t, sql)
		text := s1.String()
		s2 := mustParse(t, text)
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("round trip mismatch for %q:\n first: %#v\nsecond: %#v", sql, s1, s2)
		}
		if text2 := s2.String(); text2 != text {
			t.Errorf("unstable rendering for %q: %q vs %q", sql, text, text2)
		}
	}
}

// TestRoundTripRandom generates random statements and checks the round-trip
// property Parse(String(ast)) == ast.
func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		stmt := randomStatement(rng)
		text := stmt.String()
		got, err := Parse(text)
		if err != nil {
			t.Fatalf("iteration %d: Parse(%q): %v", i, text, err)
		}
		// Placeholder indices may differ between the generator and the
		// parser's left-to-right numbering; normalise both before compare.
		renumberPlaceholders(stmt)
		renumberPlaceholders(got)
		if !reflect.DeepEqual(stmt, got) {
			t.Fatalf("iteration %d: round trip mismatch for %q", i, text)
		}
	}
}

func renumberPlaceholders(s Statement) {
	n := 0
	StatementExprs(s, func(e Expr) {
		WalkExprs(e, func(x Expr) bool {
			if p, ok := x.(*Placeholder); ok {
				p.Index = n
				n++
			}
			return true
		})
	})
}

var randCols = []string{"id", "name", "rating", "price", "qty", "seller", "category"}
var randTables = []string{"users", "items", "bids", "orders"}

func randomLeaf(rng *rand.Rand) Expr {
	switch rng.Intn(5) {
	case 0:
		return IntLit(int64(rng.Intn(1000) - 500))
	case 1:
		return FloatLit(float64(rng.Intn(1000)) / 4)
	case 2:
		return StringLit(randString(rng))
	case 3:
		return &Placeholder{}
	default:
		c := &ColumnRef{Name: randCols[rng.Intn(len(randCols))]}
		if rng.Intn(3) == 0 {
			c.Table = randTables[rng.Intn(len(randTables))]
		}
		return c
	}
}

func randString(rng *rand.Rand) string {
	const alphabet = "abc XYZ'\\%_0189"
	n := rng.Intn(8)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

func randomArith(rng *rand.Rand, depth int) Expr {
	if depth <= 0 || rng.Intn(2) == 0 {
		return randomLeaf(rng)
	}
	ops := []BinaryOp{OpAdd, OpSub, OpMul, OpDiv}
	return &BinaryExpr{
		Op:    ops[rng.Intn(len(ops))],
		Left:  randomArith(rng, depth-1),
		Right: randomArith(rng, depth-1),
	}
}

func randomPredicate(rng *rand.Rand, depth int) Expr {
	switch rng.Intn(7) {
	case 0:
		list := make([]Expr, 1+rng.Intn(3))
		for i := range list {
			list[i] = randomLeaf(rng)
		}
		return &InExpr{Left: randomLeaf(rng), List: list, Not: rng.Intn(2) == 0}
	case 1:
		return &BetweenExpr{Left: randomLeaf(rng), Lo: randomLeaf(rng), Hi: randomLeaf(rng), Not: rng.Intn(2) == 0}
	case 2:
		return &LikeExpr{Left: randomLeaf(rng), Pattern: StringLit(randString(rng)), Not: rng.Intn(2) == 0}
	case 3:
		return &IsNullExpr{Left: randomLeaf(rng), Not: rng.Intn(2) == 0}
	default:
		ops := []BinaryOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		return &BinaryExpr{
			Op:    ops[rng.Intn(len(ops))],
			Left:  randomArith(rng, depth-1),
			Right: randomArith(rng, depth-1),
		}
	}
}

func randomCondition(rng *rand.Rand, depth int) Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		return randomPredicate(rng, depth)
	}
	switch rng.Intn(3) {
	case 0:
		return &NotExpr{Expr: randomCondition(rng, depth-1)}
	case 1:
		return &BinaryExpr{Op: OpAnd, Left: randomCondition(rng, depth-1), Right: randomCondition(rng, depth-1)}
	default:
		return &BinaryExpr{Op: OpOr, Left: randomCondition(rng, depth-1), Right: randomCondition(rng, depth-1)}
	}
}

func randomStatement(rng *rand.Rand) Statement {
	switch rng.Intn(4) {
	case 0:
		s := &SelectStmt{}
		nItems := 1 + rng.Intn(3)
		for i := 0; i < nItems; i++ {
			s.Items = append(s.Items, SelectItem{Expr: randomArith(rng, 1)})
		}
		s.From = append(s.From, TableRef{Name: randTables[rng.Intn(len(randTables))]})
		if rng.Intn(3) == 0 {
			s.From[0].Alias = "t0"
		}
		if rng.Intn(2) == 0 {
			s.Where = randomCondition(rng, 2)
		}
		if rng.Intn(4) == 0 {
			s.OrderBy = append(s.OrderBy, OrderItem{Expr: &ColumnRef{Name: randCols[rng.Intn(len(randCols))]}, Desc: rng.Intn(2) == 0})
		}
		if rng.Intn(4) == 0 {
			s.Limit = &Limit{Count: IntLit(int64(1 + rng.Intn(100)))}
		}
		return s
	case 1:
		nCols := 1 + rng.Intn(4)
		s := &InsertStmt{Table: randTables[rng.Intn(len(randTables))]}
		for i := 0; i < nCols; i++ {
			s.Columns = append(s.Columns, randCols[i])
		}
		row := make([]Expr, nCols)
		for i := range row {
			row[i] = randomLeaf(rng)
		}
		s.Rows = [][]Expr{row}
		return s
	case 2:
		s := &UpdateStmt{Table: randTables[rng.Intn(len(randTables))]}
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			s.Set = append(s.Set, Assignment{Column: randCols[i], Value: randomArith(rng, 1)})
		}
		if rng.Intn(2) == 0 {
			s.Where = randomCondition(rng, 2)
		}
		return s
	default:
		s := &DeleteStmt{Table: randTables[rng.Intn(len(randTables))]}
		if rng.Intn(2) == 0 {
			s.Where = randomCondition(rng, 2)
		}
		return s
	}
}
