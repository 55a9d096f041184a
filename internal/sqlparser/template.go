package sqlparser

// Canonical parses sql and returns its canonical rendering. Two queries that
// differ only in whitespace, keyword case or quoting canonicalise to the same
// string.
func Canonical(sql string) (string, error) {
	s, err := Parse(sql)
	if err != nil {
		return "", err
	}
	return s.String(), nil
}

// Parameterize rewrites the statement so that every literal appearing in a
// value position (WHERE comparisons, INSERT values, UPDATE assignments, IN
// lists, BETWEEN bounds, LIKE patterns, LIMIT) becomes a `?` placeholder. It
// returns the rewritten statement and the extracted values in placeholder
// order. Existing placeholders are preserved; extraction renumbers all
// placeholders left to right, and pre-existing placeholders receive a nil
// slot in the returned value list.
//
// This realises the paper's notion of a query *template* plus a *vector of
// dynamic values*: "SQL queries are given as templates (the vector of dynamic
// values for a particular instance to be known at run-time)" (§3.2).
func Parameterize(sql string) (Statement, []any, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	pz := &parameterizer{}
	switch v := stmt.(type) {
	case *SelectStmt:
		pz.rewriteSelect(v)
	case *InsertStmt:
		for _, row := range v.Rows {
			for j := range row {
				row[j] = pz.rewrite(row[j])
			}
		}
	case *UpdateStmt:
		for i := range v.Set {
			v.Set[i].Value = pz.rewrite(v.Set[i].Value)
		}
		v.Where = pz.rewrite(v.Where)
	case *DeleteStmt:
		v.Where = pz.rewrite(v.Where)
	}
	return stmt, pz.values, nil
}

type parameterizer struct {
	values []any
}

// rewriteSelect applies rewrite to a SELECT's value positions; IN-subqueries
// recurse through it so their literals are extracted too.
func (pz *parameterizer) rewriteSelect(v *SelectStmt) {
	for i := range v.Joins {
		v.Joins[i].On = pz.rewrite(v.Joins[i].On)
	}
	v.Where = pz.rewrite(v.Where)
	v.Having = pz.rewrite(v.Having)
	if v.Limit != nil {
		v.Limit.Count = pz.rewrite(v.Limit.Count)
		v.Limit.Offset = pz.rewrite(v.Limit.Offset)
	}
}

// rewrite replaces literals with placeholders throughout e.
func (pz *parameterizer) rewrite(e Expr) Expr {
	switch v := e.(type) {
	case nil:
		return nil
	case *Literal:
		ph := &Placeholder{Index: len(pz.values)}
		pz.values = append(pz.values, v.Value())
		return ph
	case *Placeholder:
		np := &Placeholder{Index: len(pz.values)}
		pz.values = append(pz.values, nil)
		return np
	case *BinaryExpr:
		return &BinaryExpr{Op: v.Op, Left: pz.rewrite(v.Left), Right: pz.rewrite(v.Right)}
	case *NotExpr:
		return &NotExpr{Expr: pz.rewrite(v.Expr)}
	case *NegExpr:
		return &NegExpr{Expr: pz.rewrite(v.Expr)}
	case *InExpr:
		out := &InExpr{Left: pz.rewrite(v.Left), Not: v.Not, Select: v.Select}
		for _, x := range v.List {
			out.List = append(out.List, pz.rewrite(x))
		}
		if out.Select != nil {
			pz.rewriteSelect(out.Select)
		}
		return out
	case *BetweenExpr:
		return &BetweenExpr{Left: pz.rewrite(v.Left), Lo: pz.rewrite(v.Lo), Hi: pz.rewrite(v.Hi), Not: v.Not}
	case *LikeExpr:
		return &LikeExpr{Left: pz.rewrite(v.Left), Pattern: pz.rewrite(v.Pattern), Not: v.Not}
	case *IsNullExpr:
		return &IsNullExpr{Left: pz.rewrite(v.Left), Not: v.Not}
	case *FuncExpr:
		out := &FuncExpr{Name: v.Name, Star: v.Star, Distinct: v.Distinct}
		for _, a := range v.Args {
			out.Args = append(out.Args, pz.rewrite(a))
		}
		return out
	default:
		return e
	}
}
