package memdb

import (
	"fmt"
	"strings"

	"autowebcache/internal/datasource"
	"autowebcache/internal/sqlparser"
)

// boundTable couples a FROM/JOIN table reference with its runtime table.
type boundTable struct {
	ref string // alias if present, else table name
	tbl *table
}

// env is the evaluation environment of one statement execution, pointed at
// one (joined) row at a time. Everything derived from the statement alone
// — table bindings, column slots, aggregate slots — is read from its plan.
type env struct {
	pl   *plan
	rows [][]Value // current row per table; nil for unmatched LEFT JOIN
	args []Value
	// aggValues holds the current group's aggregate results, indexed by the
	// plan's aggSlot, during projection, and is nil outside it.
	aggValues []Value
	// subq holds the pre-computed first-column value lists of uncorrelated
	// IN-subqueries, indexed like the plan's subs, once they are resolved.
	// Subqueries run before any outer table lock is taken (see
	// resolveSubqueries), so evaluation here is a pure membership test.
	subq [][]Value
}

// subquery returns the value list of the IN-subquery in, and false when it
// has not been resolved.
func (e *env) subquery(in *sqlparser.InExpr) ([]Value, bool) {
	for i := range e.subq {
		if e.pl.subs[i].in == in {
			return e.subq[i], true
		}
	}
	return nil, false
}

// colSlot is a resolved column reference: table index, column index.
type colSlot struct{ ti, ci int }

// lookupColumn resolves a column reference against bound tables by name.
func lookupColumn(tables []boundTable, c *sqlparser.ColumnRef) (int, int, error) {
	if c.Table != "" {
		for ti := range tables {
			if tables[ti].ref == c.Table {
				ci, ok := tables[ti].tbl.colIdx[c.Name]
				if !ok {
					return 0, 0, fmt.Errorf("memdb: no column %s in table %s", c.Name, c.Table)
				}
				return ti, ci, nil
			}
		}
		return 0, 0, fmt.Errorf("memdb: unknown table reference %s", c.Table)
	}
	found := -1
	foundCol := 0
	for ti := range tables {
		if ci, ok := tables[ti].tbl.colIdx[c.Name]; ok {
			if found >= 0 {
				return 0, 0, fmt.Errorf("memdb: ambiguous column %s", c.Name)
			}
			found, foundCol = ti, ci
		}
	}
	if found < 0 {
		return 0, 0, fmt.Errorf("memdb: unknown column %s", c.Name)
	}
	return found, foundCol, nil
}

// aggregateNames are the supported aggregate functions.
var aggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "MIN": true, "MAX": true, "AVG": true,
}

// isAggregate reports whether the expression contains an aggregate call.
func isAggregate(e sqlparser.Expr) bool {
	agg := false
	sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
		if f, ok := x.(*sqlparser.FuncExpr); ok && aggregateNames[f.Name] {
			agg = true
			return false
		}
		return true
	})
	return agg
}

// eval evaluates an expression to a value. Aggregate calls read
// env.aggValues; evaluating an aggregate without that scope is an error.
func (e *env) eval(x sqlparser.Expr) (Value, error) {
	switch v := x.(type) {
	case *sqlparser.Literal:
		return v.Value(), nil
	case *sqlparser.Placeholder:
		if v.Index < 0 || v.Index >= len(e.args) {
			return nil, fmt.Errorf("memdb: placeholder %d out of range (%d args)", v.Index, len(e.args))
		}
		return e.args[v.Index], nil
	case *sqlparser.ColumnRef:
		ti, ci, err := e.pl.resolve(v)
		if err != nil {
			return nil, err
		}
		row := e.rows[ti]
		if row == nil { // unmatched LEFT JOIN side
			return nil, nil
		}
		return row[ci], nil
	case *sqlparser.BinaryExpr:
		return e.evalBinary(v)
	case *sqlparser.NotExpr:
		inner, err := e.eval(v.Expr)
		if err != nil {
			return nil, err
		}
		return boolVal(!IsTruthy(inner)), nil
	case *sqlparser.NegExpr:
		inner, err := e.eval(v.Expr)
		if err != nil {
			return nil, err
		}
		switch n := inner.(type) {
		case int64:
			return -n, nil
		case float64:
			return -n, nil
		case nil:
			return nil, nil
		}
		return nil, fmt.Errorf("memdb: cannot negate %T", inner)
	case *sqlparser.InExpr:
		left, err := e.eval(v.Left)
		if err != nil {
			return nil, err
		}
		match := false
		if v.Select != nil {
			vals, ok := e.subquery(v)
			if !ok {
				return nil, fmt.Errorf("memdb: IN-subquery was not pre-resolved")
			}
			for _, iv := range vals {
				if Equal(left, iv) {
					match = true
					break
				}
			}
			return boolVal(match != v.Not), nil
		}
		for _, item := range v.List {
			iv, err := e.eval(item)
			if err != nil {
				return nil, err
			}
			if Equal(left, iv) {
				match = true
				break
			}
		}
		return boolVal(match != v.Not), nil
	case *sqlparser.BetweenExpr:
		left, err := e.eval(v.Left)
		if err != nil {
			return nil, err
		}
		lo, err := e.eval(v.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := e.eval(v.Hi)
		if err != nil {
			return nil, err
		}
		if left == nil || lo == nil || hi == nil {
			return boolVal(v.Not), nil
		}
		in := Compare(left, lo) >= 0 && Compare(left, hi) <= 0
		return boolVal(in != v.Not), nil
	case *sqlparser.LikeExpr:
		left, err := e.eval(v.Left)
		if err != nil {
			return nil, err
		}
		pat, err := e.eval(v.Pattern)
		if err != nil {
			return nil, err
		}
		ls, ok1 := left.(string)
		ps, ok2 := pat.(string)
		if !ok1 {
			ls = valueToString(left)
		}
		if !ok2 {
			ps = valueToString(pat)
		}
		if left == nil || pat == nil {
			return boolVal(v.Not), nil
		}
		return boolVal(datasource.Like(ps, ls) != v.Not), nil
	case *sqlparser.IsNullExpr:
		left, err := e.eval(v.Left)
		if err != nil {
			return nil, err
		}
		return boolVal((left == nil) != v.Not), nil
	case *sqlparser.FuncExpr:
		if aggregateNames[v.Name] {
			if e.aggValues != nil {
				if i, ok := e.pl.aggSlot[v]; ok {
					return e.aggValues[i], nil
				}
			}
			return nil, fmt.Errorf("memdb: aggregate %s used outside aggregation context", v.Name)
		}
		return e.evalScalarFunc(v)
	}
	return nil, fmt.Errorf("memdb: cannot evaluate %T", x)
}

// bound is an expression compiled against its plan (plan.bind): a column
// reference the plan resolved reads its slot directly, and a binary
// operation evaluates its bound operands. Any other node — and a reference
// the plan could not resolve, which fails when evaluated — is evaluated
// from its source expression.
type bound struct {
	src  sqlparser.Expr
	col  bool // a resolved column reference, read at slot
	slot colSlot
	op   sqlparser.BinaryOp
	l, r *bound // the operands of a binary operation, else nil
}

// evalBound evaluates a bound expression.
func (e *env) evalBound(b *bound) (Value, error) {
	switch {
	case b.col:
		row := e.rows[b.slot.ti]
		if row == nil { // unmatched LEFT JOIN side
			return nil, nil
		}
		return row[b.slot.ci], nil
	case b.l == nil:
		return e.eval(b.src)
	}
	l, err := e.evalBound(b.l)
	if err != nil {
		return nil, err
	}
	if logic, decided := shortCircuit(b.op, l); decided {
		return logic, nil
	}
	r, err := e.evalBound(b.r)
	if err != nil {
		return nil, err
	}
	return applyBinary(b.op, l, r)
}

func (e *env) evalBinary(v *sqlparser.BinaryExpr) (Value, error) {
	l, err := e.eval(v.Left)
	if err != nil {
		return nil, err
	}
	if logic, decided := shortCircuit(v.Op, l); decided {
		return logic, nil
	}
	r, err := e.eval(v.Right)
	if err != nil {
		return nil, err
	}
	return applyBinary(v.Op, l, r)
}

// shortCircuit decides AND and OR from their left operand when it can.
func shortCircuit(op sqlparser.BinaryOp, l Value) (Value, bool) {
	switch {
	case op == sqlparser.OpAnd && !IsTruthy(l):
		return boolVal(false), true
	case op == sqlparser.OpOr && IsTruthy(l):
		return boolVal(true), true
	}
	return nil, false
}

// applyBinary applies op to evaluated operands.
func applyBinary(op sqlparser.BinaryOp, l, r Value) (Value, error) {
	switch op {
	case sqlparser.OpAnd, sqlparser.OpOr:
		return boolVal(IsTruthy(r)), nil
	}
	if op.IsComparison() {
		// SQL NULL: any comparison with NULL is false.
		if l == nil || r == nil {
			return boolVal(false), nil
		}
		c := Compare(l, r)
		switch op {
		case sqlparser.OpEq:
			return boolVal(c == 0), nil
		case sqlparser.OpNe:
			return boolVal(c != 0), nil
		case sqlparser.OpLt:
			return boolVal(c < 0), nil
		case sqlparser.OpLe:
			return boolVal(c <= 0), nil
		case sqlparser.OpGt:
			return boolVal(c > 0), nil
		case sqlparser.OpGe:
			return boolVal(c >= 0), nil
		}
	}
	return arith(op, l, r)
}

func arith(op sqlparser.BinaryOp, l, r Value) (Value, error) {
	if l == nil || r == nil {
		return nil, nil
	}
	li, lInt := l.(int64)
	ri, rInt := r.(int64)
	if lInt && rInt && op != sqlparser.OpDiv {
		switch op {
		case sqlparser.OpAdd:
			return li + ri, nil
		case sqlparser.OpSub:
			return li - ri, nil
		case sqlparser.OpMul:
			return li * ri, nil
		}
	}
	lf, ok1 := ToFloat(l)
	rf, ok2 := ToFloat(r)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("memdb: non-numeric operand for %v", op)
	}
	switch op {
	case sqlparser.OpAdd:
		return lf + rf, nil
	case sqlparser.OpSub:
		return lf - rf, nil
	case sqlparser.OpMul:
		return lf * rf, nil
	case sqlparser.OpDiv:
		if rf == 0 {
			return nil, nil // SQL: division by zero yields NULL
		}
		return lf / rf, nil
	}
	return nil, fmt.Errorf("memdb: unsupported arithmetic operator %v", op)
}

// evalScalarFunc evaluates the small set of supported scalar functions.
func (e *env) evalScalarFunc(v *sqlparser.FuncExpr) (Value, error) {
	argv := make([]Value, len(v.Args))
	for i, a := range v.Args {
		x, err := e.eval(a)
		if err != nil {
			return nil, err
		}
		argv[i] = x
	}
	switch v.Name {
	case "LOWER":
		if len(argv) != 1 {
			return nil, fmt.Errorf("memdb: LOWER wants 1 arg")
		}
		return strings.ToLower(valueToString(argv[0])), nil
	case "UPPER":
		if len(argv) != 1 {
			return nil, fmt.Errorf("memdb: UPPER wants 1 arg")
		}
		return strings.ToUpper(valueToString(argv[0])), nil
	case "LENGTH":
		if len(argv) != 1 {
			return nil, fmt.Errorf("memdb: LENGTH wants 1 arg")
		}
		return int64(len(valueToString(argv[0]))), nil
	case "ABS":
		if len(argv) != 1 {
			return nil, fmt.Errorf("memdb: ABS wants 1 arg")
		}
		switch n := argv[0].(type) {
		case int64:
			if n < 0 {
				return -n, nil
			}
			return n, nil
		case float64:
			if n < 0 {
				return -n, nil
			}
			return n, nil
		case nil:
			return nil, nil
		}
		return nil, fmt.Errorf("memdb: ABS of non-number")
	}
	return nil, fmt.Errorf("memdb: unknown function %s", v.Name)
}

func boolVal(b bool) Value {
	if b {
		return int64(1)
	}
	return int64(0)
}

func valueToString(v Value) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	default:
		return fmt.Sprint(v)
	}
}
