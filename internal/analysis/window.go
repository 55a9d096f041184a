package analysis

// Window-aware invalidation. A read with ORDER BY … LIMIT shows a window of
// its matching rows; a write that cannot change that window leaves the
// page's bytes as they are, whatever the value test says about its
// predicate. A run of such a read records its Window — the keys it showed,
// the ORDER BY tuple of its last row and whether it filled its LIMIT — and
// PreparedWrite.IntersectsDependent spares the instance when the write
// provably leaves the window alone:
//
//   - UPDATE: the SET columns are disjoint from the read's WHERE, JOIN ON
//     and ORDER BY columns, and no written row's key is among the shown
//     keys (keys from the pre-image, or from a `key = ?` WHERE binding);
//   - INSERT: the window is full and the new row's ORDER BY tuple sorts
//     strictly after the last row's;
//   - DELETE: the window is full and every deleted row sorts strictly after
//     the last row.
//
// A tie, an unbound or differently typed ORDER BY value, or an unknown key
// spares nothing, and neither does a dependency without a window.

import (
	"math"
	"slices"
	"strconv"
	"strings"

	"autowebcache/internal/datasource"
	"autowebcache/internal/sqlparser"
)

// Window is what one run of an ORDER BY … LIMIT read showed. It is
// immutable once recorded.
type Window struct {
	// keys holds, per key column of the template's windowSpec, the shown
	// keys in ascending order; nil when one of them was not an integer.
	keys [][]int64
	// last is the ORDER BY tuple of the last row shown; nil when none was.
	last []datasource.Value
	// full reports that the read returned as many rows as its LIMIT.
	full bool
}

// Same reports whether w and o record the same window. A nil window is
// the same as no other.
func (w *Window) Same(o *Window) bool {
	if w == nil || o == nil {
		return false
	}
	if w == o {
		return true
	}
	if w.full != o.full || !datasource.SameKey(w.last, o.last) || len(w.keys) != len(o.keys) {
		return false
	}
	for i := range w.keys {
		if (w.keys[i] == nil) != (o.keys[i] == nil) || !slices.Equal(w.keys[i], o.keys[i]) {
			return false
		}
	}
	return true
}

// windowSpec is a template's window metadata: where its result shows the
// ORDER BY columns and each table's key. nil for a template whose window is
// not fully visible in its result, which is then swept without one.
type windowSpec struct {
	order []orderCol
	keys  []keyCol
	count ValueRef // the LIMIT count
	// predCols maps table -> the columns the read's WHERE, JOIN ON and
	// ORDER BY use; an UPDATE setting none of them moves no row into,
	// out of or within the window.
	predCols map[string]map[string]bool
}

// orderCol is one ORDER BY item: a column of table shown at output pos.
type orderCol struct {
	table, col string
	pos        int
	desc       bool
}

// keyCol is a table's auto-increment key column, shown at output pos.
type keyCol struct {
	table, col string
	pos        int
}

// keyIndex returns the position of table among the spec's key columns, or
// -1.
func (ws *windowSpec) keyIndex(table string) int {
	for i := range ws.keys {
		if ws.keys[i].table == table {
			return i
		}
	}
	return -1
}

// collectWindow fills info.window for a SELECT whose window its result
// fully shows: ORDER BY plain columns it projects and a LIMIT, over inner
// joins of distinct tables, with no DISTINCT, grouping, aggregate, star or
// subquery — shapes where a result row is one row of each table and the
// rows shown are the first LIMIT of the matching rows in ORDER BY order.
func (info *TemplateInfo) collectWindow(s *sqlparser.SelectStmt, schema Schema) {
	if s.Limit == nil || len(s.OrderBy) == 0 || s.Distinct || len(s.GroupBy) > 0 || s.Having != nil {
		return
	}
	count := valueRefOf(s.Limit.Count)
	if !count.Known {
		return
	}
	for i := range s.Joins {
		if s.Joins[i].Kind != sqlparser.JoinInner {
			return
		}
	}
	for i, t := range info.Tables {
		if slices.Contains(info.Tables[:i], t) {
			return // a self-join: one table's rows show under two names
		}
	}
	nested := false // an aggregate or a subquery
	sqlparser.StatementExprs(s, func(e sqlparser.Expr) {
		sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
			switch v := x.(type) {
			case *sqlparser.FuncExpr:
				nested = true
			case *sqlparser.InExpr:
				nested = nested || v.Select != nil
			}
			return !nested
		})
	})
	if nested {
		return
	}
	// shown locates the output position of a column reference.
	shown := func(table, col string) int {
		for i := range s.Items {
			if s.Items[i].Star {
				return -1
			}
			cr, ok := s.Items[i].Expr.(*sqlparser.ColumnRef)
			if !ok || cr.Name != col {
				continue
			}
			if t, ok := info.resolveColumn(cr, schema); ok && t == table {
				return i
			}
		}
		return -1
	}
	ws := &windowSpec{count: count, predCols: make(map[string]map[string]bool)}
	for _, o := range s.OrderBy {
		cr, ok := o.Expr.(*sqlparser.ColumnRef)
		if !ok {
			return
		}
		table, ok := info.resolveColumn(cr, schema)
		if !ok {
			return
		}
		pos := shown(table, cr.Name)
		if pos < 0 {
			return
		}
		ws.order = append(ws.order, orderCol{table: table, col: cr.Name, pos: pos, desc: o.Desc})
	}
	if ai, ok := schema.(autoIncrementer); ok {
		for _, t := range info.Tables {
			if col, ok := ai.AutoIncrementColumn(t); ok {
				if pos := shown(t, col); pos >= 0 {
					ws.keys = append(ws.keys, keyCol{table: t, col: col, pos: pos})
				}
			}
		}
	}
	addCols := func(e sqlparser.Expr) {
		sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
			if c, ok := x.(*sqlparser.ColumnRef); ok {
				owners := info.Tables // unknown owner: every table
				if t, ok := info.resolveColumn(c, schema); ok {
					owners = []string{t}
				}
				for _, t := range owners {
					if ws.predCols[t] == nil {
						ws.predCols[t] = make(map[string]bool)
					}
					ws.predCols[t][c.Name] = true
				}
			}
			return true
		})
	}
	addCols(info.ReadPred)
	for _, o := range ws.order {
		addCols(&sqlparser.ColumnRef{Table: o.table, Name: o.col})
	}
	info.window = ws
}

// Windowed reports whether the template records a window when it runs.
func (info *TemplateInfo) Windowed() bool { return info.window != nil }

// WindowOf records the window one run of the template showed: args are the
// run's arguments and rows its result. It returns nil for a template
// without a window, or a result it cannot read one from. The window copies
// what it keeps, so the caller may go on using rows.
func (info *TemplateInfo) WindowOf(args []datasource.Value, rows *datasource.Rows) *Window {
	ws := info.window
	if ws == nil || rows == nil {
		return nil
	}
	cv, ok := ws.count.Resolve(args)
	if !ok {
		return nil
	}
	count, ok := intKey(cv)
	if !ok || count < 0 {
		return nil
	}
	n := rows.Len()
	w := &Window{full: count > 0 && int64(n) == count, keys: make([][]int64, len(ws.keys))}
	if n > 0 {
		last := rows.Data[n-1]
		w.last = make([]datasource.Value, len(ws.order))
		for i, o := range ws.order {
			if o.pos >= len(last) {
				return nil
			}
			w.last[i] = last[o.pos]
		}
	}
	for i, k := range ws.keys {
		keys := make([]int64, 0, n)
		for _, row := range rows.Data {
			if k.pos >= len(row) {
				return nil
			}
			id, ok := intKey(row[k.pos])
			if !ok {
				keys = nil
				break
			}
			keys = append(keys, id)
		}
		slices.Sort(keys)
		w.keys[i] = keys
	}
	return w
}

// intKey returns the integer v equals under datasource.Compare, when it is
// one: an int64, an integral float64, or a string that parses as either.
func intKey(v datasource.Value) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1<<53 {
			return int64(x), true
		}
	case string:
		if f, err := strconv.ParseFloat(strings.TrimSpace(x), 64); err == nil {
			return intKey(f)
		}
	}
	return 0, false
}

// windowSpares reports whether the write provably leaves the window win of
// a read with spec ws as it is.
func (pw *PreparedWrite) windowSpares(ws *windowSpec, win *Window) bool {
	switch pw.wi.Kind {
	case KindUpdate:
		return pw.updateSpares(ws, win)
	case KindInsert:
		return win.full && pw.insertsAfter(ws, win.last)
	case KindDelete:
		return win.full && pw.deletesAfter(ws, win.last)
	}
	return false
}

// updateSpares: an UPDATE setting none of the columns that place a row in
// the window moves no row into, out of or within it, so it changes the
// window only through a row it shows.
func (pw *PreparedWrite) updateSpares(ws *windowSpec, win *Window) bool {
	k := ws.keyIndex(pw.table)
	if k < 0 || win.keys[k] == nil {
		return false
	}
	pred := ws.predCols[pw.table]
	for _, col := range pw.wi.setCols {
		if pred[col] {
			return false
		}
	}
	keys, known := pw.writtenKeys(ws.keys[k].col)
	if !known {
		return false
	}
	for _, id := range keys {
		if _, shown := slices.BinarySearch(win.keys[k], id); shown {
			return false
		}
	}
	return true
}

// writtenKeys returns the keys of the rows an UPDATE writes when it knows
// them for key column col: every pre-image row's, else the `col = ?`
// binding of its WHERE clause.
func (pw *PreparedWrite) writtenKeys(col string) ([]int64, bool) {
	if pw.keyCol != col {
		return nil, false
	}
	return pw.keys, pw.keysKnown
}

// prepareKeys fills the written keys of an UPDATE on a table whose key
// column is col, storing one key without allocating.
func (pw *PreparedWrite) prepareKeys(col string) {
	pw.keyCol = col
	pw.keys = pw.keyBuf[:0]
	if pw.w.Affected != nil {
		ci, present := pw.colIndex(col)
		if !present {
			return
		}
		for _, row := range pw.w.Affected.Data {
			id, ok := intKey(row[ci])
			if !ok {
				return
			}
			pw.keys = append(pw.keys, id)
		}
		pw.keysKnown = true
		return
	}
	if v, bound := pw.whereBinding(col); bound {
		if id, ok := intKey(v); ok {
			pw.keys = append(pw.keys, id)
			pw.keysKnown = true
		}
	}
}

// insertsAfter reports whether the inserted row's ORDER BY tuple is bound
// and sorts strictly after last. A value of another type than the shown
// one may be coerced by its column on the way in, so it decides nothing.
func (pw *PreparedWrite) insertsAfter(ws *windowSpec, last []datasource.Value) bool {
	if len(last) != len(ws.order) {
		return false
	}
	for i, o := range ws.order {
		if o.table != pw.table {
			return false
		}
		v, ok := pw.insertBinding(o.col)
		if !ok || !sameKind(v, last[i]) {
			return false
		}
		if c := orderCompare(v, last[i], o.desc); c != 0 {
			return c > 0
		}
	}
	return false // a tie
}

// deletesAfter reports whether every pre-image row of a DELETE sorts
// strictly after last.
func (pw *PreparedWrite) deletesAfter(ws *windowSpec, last []datasource.Value) bool {
	if pw.w.Affected == nil || len(last) != len(ws.order) {
		return false
	}
	for _, row := range pw.w.Affected.Data {
		after := false
		for i, o := range ws.order {
			if o.table != pw.table {
				return false
			}
			ci, ok := pw.colIndex(o.col)
			if !ok {
				return false
			}
			if c := orderCompare(row[ci], last[i], o.desc); c != 0 {
				after = c > 0
				break
			}
		}
		if !after {
			return false
		}
	}
	return true
}

// orderCompare orders a against b as one ORDER BY item does.
func orderCompare(a, b datasource.Value, desc bool) int {
	c := datasource.Compare(a, b)
	if desc {
		return -c
	}
	return c
}

// sameKind reports whether a and b are non-NULL values of one type.
func sameKind(a, b datasource.Value) bool {
	switch a.(type) {
	case int64:
		_, ok := b.(int64)
		return ok
	case float64:
		_, ok := b.(float64)
		return ok
	case string:
		_, ok := b.(string)
		return ok
	}
	return false
}
