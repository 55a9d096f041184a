package analysis

import (
	"slices"

	"autowebcache/internal/datasource"
	"autowebcache/internal/sqlparser"
)

// Tri is a three-valued logic result for predicate evaluation under partial
// knowledge: a predicate over columns the analysis cannot bind evaluates to
// Unknown, which every strategy treats conservatively (as "may intersect").
type Tri int

// Tri values. Unknown is deliberately the zero value: absence of knowledge
// is the default.
const (
	Unknown Tri = iota
	False
	True
)

func (t Tri) String() string {
	switch t {
	case False:
		return "false"
	case True:
		return "true"
	}
	return "unknown"
}

// triOf lifts a definite boolean.
func triOf(b bool) Tri {
	if b {
		return True
	}
	return False
}

// Not flips True/False and preserves Unknown.
func (t Tri) Not() Tri {
	switch t {
	case True:
		return False
	case False:
		return True
	}
	return Unknown
}

// And combines with three-valued AND.
func (t Tri) And(o Tri) Tri {
	if t == False || o == False {
		return False
	}
	if t == True && o == True {
		return True
	}
	return Unknown
}

// Or combines with three-valued OR.
func (t Tri) Or(o Tri) Tri {
	if t == True || o == True {
		return True
	}
	if t == False && o == False {
		return False
	}
	return Unknown
}

// Binding supplies the (partially) known column values of the target table's
// candidate row. ok is false for columns whose value is not known.
type Binding func(col string) (datasource.Value, bool)

// predEvaluator evaluates a read template's predicate against a binding for
// one target table. Columns belonging to other tables are Unknown.
type predEvaluator struct {
	read    *TemplateInfo
	target  string
	args    []datasource.Value
	binding Binding
	schema  Schema
	// fresh marks target columns holding freshly generated values (an
	// INSERT's auto-increment key): no existing row of any other table can
	// reference them, so cross-table equality on a fresh column is False.
	fresh map[string]bool
	// insert, when set, is the INSERT whose new row the binding holds: the
	// columns of a table it joins by key bind to its joined row.
	insert *PreparedWrite
}

// EvalReadPred evaluates the read template's effective row predicate (WHERE
// plus JOIN ON conditions) under the binding. A nil predicate is True: the
// read selects all rows, so any written row intersects.
func EvalReadPred(read *TemplateInfo, target string, args []datasource.Value, binding Binding, schema Schema) Tri {
	return EvalReadPredFresh(read, target, args, binding, nil, schema)
}

// EvalReadPredFresh is EvalReadPred with a set of fresh target columns (see
// predEvaluator.fresh). Marking a column fresh is sound only for values that
// did not exist before the write, such as auto-increment keys.
func EvalReadPredFresh(read *TemplateInfo, target string, args []datasource.Value, binding Binding, fresh map[string]bool, schema Schema) Tri {
	if read.ReadPred == nil {
		return True
	}
	pe := &predEvaluator{read: read, target: target, args: args, binding: binding, fresh: fresh, schema: schema}
	return pe.tri(read.ReadPred)
}

// freshComparison resolves equality/inequality between a fresh target
// column and a column of another table: a fresh value cannot be referenced
// by pre-existing rows, so `other.fk = fresh.id` is False (and <> is True).
// handled is false when the rule does not apply.
func (pe *predEvaluator) freshComparison(v *sqlparser.BinaryExpr) (res Tri, handled bool) {
	if len(pe.fresh) == 0 || (v.Op != sqlparser.OpEq && v.Op != sqlparser.OpNe) {
		return Unknown, false
	}
	isFreshTargetCol := func(e sqlparser.Expr) bool {
		c, ok := e.(*sqlparser.ColumnRef)
		if !ok {
			return false
		}
		owner, ok := pe.read.resolveColumn(c, pe.schema)
		return ok && owner == pe.target && pe.fresh[c.Name]
	}
	isOtherTableCol := func(e sqlparser.Expr) bool {
		c, ok := e.(*sqlparser.ColumnRef)
		if !ok {
			return false
		}
		owner, ok := pe.read.resolveColumn(c, pe.schema)
		return !ok || owner != pe.target
	}
	cross := (isFreshTargetCol(v.Left) && isOtherTableCol(v.Right)) ||
		(isFreshTargetCol(v.Right) && isOtherTableCol(v.Left))
	if !cross {
		return Unknown, false
	}
	if v.Op == sqlparser.OpEq {
		return False, true
	}
	return True, true
}

// value evaluates an expression to a concrete value. ok is false when the
// value cannot be determined statically.
func (pe *predEvaluator) value(e sqlparser.Expr) (datasource.Value, bool) {
	switch v := e.(type) {
	case *sqlparser.Literal:
		return v.Value(), true
	case *sqlparser.Placeholder:
		if v.Index < 0 || v.Index >= len(pe.args) {
			return nil, false
		}
		return pe.args[v.Index], true
	case *sqlparser.ColumnRef:
		owner, ok := pe.read.resolveColumn(v, pe.schema)
		if !ok {
			return nil, false
		}
		if owner != pe.target {
			if pe.insert == nil {
				return nil, false
			}
			rows, joined := pe.insert.joinedRow(pe.read, owner)
			if !joined {
				return nil, false
			}
			ci := slices.Index(rows.Columns, v.Name)
			if ci < 0 {
				return nil, false
			}
			return rows.Data[0][ci], true
		}
		return pe.binding(v.Name)
	case *sqlparser.NegExpr:
		inner, ok := pe.value(v.Expr)
		if !ok {
			return nil, false
		}
		switch n := inner.(type) {
		case int64:
			return -n, true
		case float64:
			return -n, true
		}
		return nil, false
	default:
		// Arithmetic and function calls are treated as statically unknown;
		// this is conservative (pushes towards invalidation), never unsound.
		return nil, false
	}
}

// tri evaluates a boolean expression to three-valued logic.
func (pe *predEvaluator) tri(e sqlparser.Expr) Tri {
	switch v := e.(type) {
	case *sqlparser.BinaryExpr:
		switch v.Op {
		case sqlparser.OpAnd:
			return pe.tri(v.Left).And(pe.tri(v.Right))
		case sqlparser.OpOr:
			return pe.tri(v.Left).Or(pe.tri(v.Right))
		}
		if res, handled := pe.freshComparison(v); handled {
			return res
		}
		if v.Op.IsComparison() {
			l, lok := pe.value(v.Left)
			r, rok := pe.value(v.Right)
			if !lok || !rok {
				return Unknown
			}
			if l == nil || r == nil {
				return False // SQL: comparisons with NULL are false
			}
			c := datasource.Compare(l, r)
			switch v.Op {
			case sqlparser.OpEq:
				return triOf(c == 0)
			case sqlparser.OpNe:
				return triOf(c != 0)
			case sqlparser.OpLt:
				return triOf(c < 0)
			case sqlparser.OpLe:
				return triOf(c <= 0)
			case sqlparser.OpGt:
				return triOf(c > 0)
			case sqlparser.OpGe:
				return triOf(c >= 0)
			}
		}
		return Unknown // arithmetic in boolean position
	case *sqlparser.NotExpr:
		return pe.tri(v.Expr).Not()
	case *sqlparser.InExpr:
		if v.Select != nil {
			// Membership depends on another table's current rows, which the
			// static evaluation does not model. Unknown pushes towards
			// invalidation, never towards a stale hit.
			return Unknown
		}
		l, lok := pe.value(v.Left)
		if !lok {
			return Unknown
		}
		anyUnknown := false
		for _, item := range v.List {
			iv, ok := pe.value(item)
			if !ok {
				anyUnknown = true
				continue
			}
			if datasource.Equal(l, iv) {
				return triOf(!v.Not)
			}
		}
		if anyUnknown {
			return Unknown
		}
		return triOf(v.Not)
	case *sqlparser.BetweenExpr:
		l, ok1 := pe.value(v.Left)
		lo, ok2 := pe.value(v.Lo)
		hi, ok3 := pe.value(v.Hi)
		if !ok1 || !ok2 || !ok3 {
			return Unknown
		}
		if l == nil || lo == nil || hi == nil {
			return triOf(v.Not)
		}
		in := datasource.Compare(l, lo) >= 0 && datasource.Compare(l, hi) <= 0
		return triOf(in != v.Not)
	case *sqlparser.LikeExpr:
		l, ok1 := pe.value(v.Left)
		p, ok2 := pe.value(v.Pattern)
		if !ok1 || !ok2 {
			return Unknown
		}
		ls, isS1 := l.(string)
		ps, isS2 := p.(string)
		if !isS1 || !isS2 {
			return Unknown
		}
		return triOf(datasource.Like(ps, ls) != v.Not)
	case *sqlparser.IsNullExpr:
		l, ok := pe.value(v.Left)
		if !ok {
			// The column may be bound as unknown; IS NULL on an unknown
			// value is unknown.
			return Unknown
		}
		return triOf((l == nil) != v.Not)
	case *sqlparser.Literal:
		return triOf(datasource.IsTruthy(v.Value()))
	case *sqlparser.Placeholder:
		val, ok := pe.value(v)
		if !ok {
			return Unknown
		}
		return triOf(datasource.IsTruthy(val))
	default:
		return Unknown
	}
}
