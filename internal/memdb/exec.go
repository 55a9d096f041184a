package memdb

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"autowebcache/internal/datasource"
	"autowebcache/internal/sqlparser"
)

// splitConjuncts flattens a WHERE tree into AND-ed conjuncts.
func splitConjuncts(e sqlparser.Expr, out []sqlparser.Expr) []sqlparser.Expr {
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == sqlparser.OpAnd {
		out = splitConjuncts(b.Left, out)
		return splitConjuncts(b.Right, out)
	}
	if e != nil {
		out = append(out, e)
	}
	return out
}

// maxTableIndex returns the highest table index referenced by e, or -1 when
// the expression references no columns. An error is returned for unknown
// references.
func maxTableIndex(e sqlparser.Expr, ev *env) (int, error) {
	maxIdx := -1
	var walkErr error
	sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
		c, ok := x.(*sqlparser.ColumnRef)
		if !ok {
			return true
		}
		ti, _, err := ev.resolve(c)
		if err != nil {
			walkErr = err
			return false
		}
		if ti > maxIdx {
			maxIdx = ti
		}
		return true
	})
	return maxIdx, walkErr
}

// indexProbe is an index lookup that can stand in for one conjunct of a
// join level: `col = eq` or `col IN (…)`, where col is an indexed column of
// the level's table and the other side references only earlier tables.
type indexProbe struct {
	ix   *hashIndex
	cond int            // the conjunct's position in its level's conds
	eq   sqlparser.Expr // the value side of `col = eq`, or nil
	in   *sqlparser.InExpr
}

// selectPlan is the per-level execution plan of a SELECT, or of the WHERE
// clause of an UPDATE or DELETE (one level).
type selectPlan struct {
	ev *env
	// conds[k] holds the conjuncts whose highest referenced table is k; they
	// are checked as soon as table k is bound.
	conds [][]sqlparser.Expr
	// probes[k] holds the index probes that can replace a scan of table k.
	probes   [][]indexProbe
	leftJoin []bool  // is table k the right side of a LEFT JOIN
	union    [][]int // per-level scratch for the row ids of IN probes, if any
	out      *projection
	// reverse visits the first table's candidates last to first.
	reverse bool
	// lead is the first table's column that the first ORDER BY key reads
	// when top-k may stop walking a bucket ordered by it, or -1.
	lead int
	// first and sub are the arrival of the joined row being built: the
	// forward position of its first-table row among that table's
	// candidates, and how many joined rows that row produced before it.
	first, sub int
	scanned    int // rows visited during execution
}

func newPlan(ev *env) *selectPlan {
	n := len(ev.tables)
	return &selectPlan{
		ev:       ev,
		conds:    make([][]sqlparser.Expr, n),
		probes:   make([][]indexProbe, n),
		leftJoin: make([]bool, n),
		lead:     -1,
	}
}

// resolveSubqueries pre-executes every uncorrelated IN-subquery reachable
// from the given clauses and stores the first-column value lists on ev.
// It must run before any outer table lock is taken: each subquery is an
// independent SELECT acquiring (and releasing) its own read locks in
// canonical order, so nesting the evaluation inside an outer lock would
// reintroduce the lock-ordering deadlock that canonical ordering prevents.
// Correlated subqueries fail naturally inside the inner execSelect (their
// outer column references are unknown there).
func (db *DB) resolveSubqueries(clauses []sqlparser.Expr, args []Value, ev *env) (scanned int, err error) {
	var subs []*sqlparser.InExpr
	for _, e := range clauses {
		sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
			if in, ok := x.(*sqlparser.InExpr); ok && in.Select != nil {
				subs = append(subs, in)
			}
			return true
		})
	}
	if len(subs) == 0 {
		return 0, nil
	}
	ev.subq = make(map[*sqlparser.InExpr][]Value, len(subs))
	for _, in := range subs {
		// Placeholder indices are global across the whole statement, so the
		// inner select indexes the same args vector.
		rows, n, err := db.execSelect(in.Select, args)
		scanned += n
		if err != nil {
			return scanned, err
		}
		vals := make([]Value, 0, rows.Len())
		for _, r := range rows.Data {
			if len(r) > 0 {
				vals = append(vals, r[0])
			}
		}
		ev.subq[in] = vals
	}
	return scanned, nil
}

// execSelect runs a select and also reports the number of rows visited,
// which drives the simulated per-row service time.
func (db *DB) execSelect(sel *sqlparser.SelectStmt, args []Value) (*Rows, int, error) {
	ev := &env{args: args}
	for i := range sel.From {
		t, err := db.lookupTable(sel.From[i].Name)
		if err != nil {
			return nil, 0, err
		}
		ev.tables = append(ev.tables, boundTable{ref: sel.From[i].RefName(), tbl: t})
	}
	onConds := make([]sqlparser.Expr, len(sel.From)) // nil for FROM tables
	for i := range sel.Joins {
		j := &sel.Joins[i]
		t, err := db.lookupTable(j.Table.Name)
		if err != nil {
			return nil, 0, err
		}
		ev.tables = append(ev.tables, boundTable{ref: j.Table.RefName(), tbl: t})
		onConds = append(onConds, j.On)
	}
	ev.rows = make([][]Value, len(ev.tables))

	// IN-subqueries run first, before any outer lock is taken.
	subClauses := append([]sqlparser.Expr{sel.Where, sel.Having}, onConds...)
	subScanned, err := db.resolveSubqueries(subClauses, args, ev)
	if err != nil {
		return nil, subScanned, err
	}

	plan := newPlan(ev)
	for i := range sel.Joins {
		plan.leftJoin[len(sel.From)+i] = sel.Joins[i].Kind == sqlparser.JoinLeft
	}
	// Distribute conjuncts from WHERE and JOIN ... ON clauses.
	for k, on := range onConds {
		for _, c := range splitConjuncts(on, nil) {
			level, err := maxTableIndex(c, ev)
			if err != nil {
				return nil, 0, err
			}
			// ON conditions belong to their join level even if they only
			// reference earlier tables.
			plan.addCond(max(level, k), c)
		}
	}
	var constConds []sqlparser.Expr
	for _, c := range splitConjuncts(sel.Where, nil) {
		level, err := maxTableIndex(c, ev)
		if err != nil {
			return nil, 0, err
		}
		if level < 0 {
			constConds = append(constConds, c)
			continue
		}
		plan.addCond(level, c)
	}

	out, err := newProjection(sel, ev)
	if err != nil {
		return nil, 0, err
	}
	// Constant-only conjuncts (e.g. `WHERE 1 = 0`) gate the whole query.
	for _, c := range constConds {
		v, err := ev.eval(c)
		if err != nil {
			return nil, 0, err
		}
		if !IsTruthy(v) {
			rows, err := out.finish()
			return rows, subScanned, err
		}
	}

	// Lock all involved tables for read in a canonical order. Writers take a
	// single table's write lock, so ordering readers by name prevents
	// deadlock. The projection reads the rows it kept until it finishes.
	locked := lockTablesRead(ev.tables)
	defer unlockTablesRead(locked)

	// Enumerate joined rows via recursive nested loops with index probes.
	// When the projection keeps the first rows of an ordering, the first
	// table is visited in the direction of its first key: last to first for
	// DESC, so rows stored oldest first arrive newest first and a later row
	// rarely displaces a kept one, and a bucket ordered by that key is
	// walked best first and left as soon as top-k is settled.
	plan.out = out
	if out.top != nil && out.groups == nil {
		plan.reverse = sel.OrderBy[0].Desc
		plan.lead = out.leadColumn()
	}
	err = plan.joinLevel(0)
	db.rowsScanned.Add(uint64(plan.scanned))
	if err != nil {
		return nil, 0, err
	}
	rows, err := out.finish()
	return rows, plan.scanned + subScanned, err
}

// addCond files conjunct c at the given level, and registers it as an index
// probe when it is an equality or a positive IN on one of the level's
// indexed columns whose other side references only earlier tables.
func (p *selectPlan) addCond(level int, c sqlparser.Expr) {
	p.conds[level] = append(p.conds[level], c)
	pr := indexProbe{cond: len(p.conds[level]) - 1}
	switch x := c.(type) {
	case *sqlparser.BinaryExpr:
		if x.Op != sqlparser.OpEq {
			return
		}
		if pr.ix = p.index(level, x.Left); pr.ix != nil && p.bound(level, x.Right) {
			pr.eq = x.Right
		} else if pr.ix = p.index(level, x.Right); pr.ix != nil && p.bound(level, x.Left) {
			pr.eq = x.Left
		} else {
			return
		}
	case *sqlparser.InExpr:
		if x.Not {
			return
		}
		if pr.ix = p.index(level, x.Left); pr.ix == nil {
			return
		}
		for _, e := range x.List {
			if !p.bound(level, e) {
				return
			}
		}
		pr.in = x
	default:
		return
	}
	p.probes[level] = append(p.probes[level], pr)
}

// index returns the index on e when e is an indexed column of table level.
func (p *selectPlan) index(level int, e sqlparser.Expr) *hashIndex {
	col, ok := e.(*sqlparser.ColumnRef)
	if !ok {
		return nil
	}
	ti, ci, err := p.ev.resolve(col)
	if err != nil || ti != level {
		return nil
	}
	return p.ev.tables[ti].tbl.indexes[ci]
}

// bound reports whether e references only tables bound before level.
func (p *selectPlan) bound(level int, e sqlparser.Expr) bool {
	l, err := maxTableIndex(e, p.ev)
	return err == nil && l < level
}

// candidates returns table k's candidate row ids from its first exact
// probe, and that probe, whose conjunct those rows satisfy by construction.
// The probe is nil when none is exact: the level then scans, visiting every
// row and checking every conjunct.
func (p *selectPlan) candidates(k int) (ids []int, pr *indexProbe, err error) {
	for i := range p.probes[k] {
		pr := &p.probes[k][i]
		ids, ok, err := p.lookup(k, pr)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			return ids, pr, nil
		}
	}
	return nil, nil, nil
}

// skipCond is the conjunct a probe answered, or -1 for a scan.
func skipCond(pr *indexProbe) int {
	if pr == nil {
		return -1
	}
	return pr.cond
}

// lookup runs one probe of table k; ok is false when some value has no
// exact bucket. An IN probe returns the union of its values' buckets in
// ascending row id, the order a scan visits.
func (p *selectPlan) lookup(k int, pr *indexProbe) (ids []int, ok bool, err error) {
	ev := p.ev
	if pr.in == nil {
		v, err := ev.eval(pr.eq)
		if err != nil {
			return nil, false, err
		}
		ids, ok := pr.ix.probe(v)
		return ids, ok, nil
	}
	if p.union == nil {
		p.union = make([][]int, len(p.conds))
	}
	union := p.union[k][:0]
	add := func(v Value) bool {
		ids, ok := pr.ix.probe(v)
		union = append(union, ids...)
		return ok
	}
	if pr.in.Select != nil {
		vals, resolved := ev.subq[pr.in]
		if !resolved {
			return nil, false, nil // the scan reports the error
		}
		for _, v := range vals {
			if !add(v) {
				return nil, false, nil
			}
		}
	} else {
		for _, e := range pr.in.List {
			v, err := ev.eval(e)
			if err != nil {
				return nil, false, err
			}
			if !add(v) {
				return nil, false, nil
			}
		}
	}
	slices.Sort(union)
	union = slices.Compact(union)
	p.union[k] = union
	return union, true, nil
}

// match binds row to table k and reports whether it passes the level's
// conjuncts other than skip. A deleted slot (nil) is not a row and is not
// counted as visited.
func (p *selectPlan) match(k, skip int, row []Value) (bool, error) {
	if row == nil {
		return false, nil
	}
	p.scanned++
	p.ev.rows[k] = row
	for i, c := range p.conds[k] {
		if i == skip {
			continue
		}
		v, err := p.ev.eval(c)
		if err != nil || !IsTruthy(v) {
			return false, err
		}
	}
	return true, nil
}

// lockTablesRead read-locks the distinct tables in name order and returns
// the list to unlock.
func lockTablesRead(bts []boundTable) []*table {
	seen := make(map[*table]bool, len(bts))
	var distinct []*table
	for _, bt := range bts {
		if !seen[bt.tbl] {
			seen[bt.tbl] = true
			distinct = append(distinct, bt.tbl)
		}
	}
	sort.Slice(distinct, func(i, j int) bool { return distinct[i].spec.Name < distinct[j].spec.Name })
	for _, t := range distinct {
		t.mu.RLock()
	}
	return distinct
}

func unlockTablesRead(ts []*table) {
	for i := len(ts) - 1; i >= 0; i-- {
		ts[i].mu.RUnlock()
	}
}

// joinLevel binds table k to each of its candidate rows and recurses. Past
// the last table, ev.rows is one complete joined row, which goes straight
// to the projection.
func (p *selectPlan) joinLevel(k int) error {
	ev := p.ev
	if k == len(ev.tables) {
		err := p.out.add(p.first, p.sub)
		p.sub++
		return err
	}
	t := ev.tables[k].tbl
	ids, pr, err := p.candidates(k)
	if err != nil {
		return err
	}
	scan, skip := pr == nil, skipCond(pr)
	n := len(ids)
	if scan {
		n = len(t.rows)
	}
	// A probe of the first table tells top-k how many candidates to expect.
	// An equality probe on a bucket ordered by the lead key walks it best
	// first, so once top-k rejects a row's lead key it rejects every later
	// row's too; the walk ends there, and the rows past it are not visited.
	bounded := false
	if k == 0 && !scan && p.out.top != nil && p.out.groups == nil {
		p.out.top.reserve(n, len(ev.tables))
		bounded = pr.in == nil && p.lead >= 0 && pr.ix.order == p.lead
	}
	matched := false
	for i := 0; i < n; i++ {
		pos := i
		if k == 0 && p.reverse {
			pos = n - 1 - i
		}
		id := pos
		if !scan {
			id = ids[pos]
		}
		if bounded && p.out.top.excludes(t.rows[id][p.lead]) {
			break
		}
		ok, err := p.match(k, skip, t.rows[id])
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		matched = true
		if k == 0 {
			p.first, p.sub = pos, 0
		}
		if err := p.joinLevel(k + 1); err != nil {
			return err
		}
	}
	ev.rows[k] = nil
	if !matched && p.leftJoin[k] {
		// LEFT JOIN with no match: continue with the NULL row.
		return p.joinLevel(k + 1)
	}
	return nil
}

// outputColumn describes one projected column.
type outputColumn struct {
	name string
	expr sqlparser.Expr // nil for star columns
	star struct {
		ti, ci int
	}
	isStar bool
}

// expandItems resolves the select list to concrete output columns.
func expandItems(sel *sqlparser.SelectStmt, ev *env) ([]outputColumn, error) {
	out := make([]outputColumn, 0, len(sel.Items))
	for i := range sel.Items {
		item := &sel.Items[i]
		if item.Star {
			for ti := range ev.tables {
				if item.Table != "" && ev.tables[ti].ref != item.Table {
					continue
				}
				for ci, col := range ev.tables[ti].tbl.spec.Columns {
					oc := outputColumn{name: col.Name, isStar: true}
					oc.star.ti, oc.star.ci = ti, ci
					out = append(out, oc)
				}
			}
			continue
		}
		name := item.Alias
		if name == "" {
			if c, ok := item.Expr.(*sqlparser.ColumnRef); ok {
				name = c.Name
			} else {
				name = item.Expr.String()
			}
		}
		out = append(out, outputColumn{name: name, expr: item.Expr})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("memdb: empty select list")
	}
	return out, nil
}

// projection is the output side of a SELECT, bound once per statement. It
// consumes joined rows as the join produces them and applies aggregation,
// HAVING, DISTINCT, ORDER BY and LIMIT.
type projection struct {
	ev   *env
	sel  *sqlparser.SelectStmt
	cols []outputColumn
	// orderCol[i] is the output column ORDER BY item i reads, or -1 when
	// the item is evaluated against the row.
	orderCol []int
	groups   *grouping // nil unless the statement aggregates
	// top keeps the offset+count first candidates when the statement has an
	// ORDER BY, a LIMIT known before any row is read, and no DISTINCT
	// (which needs every output row). Otherwise every candidate's output
	// row is built into rows for a full stable sort.
	top    *topK
	offset int
	rows   []sortableRow
}

type sortableRow struct {
	out  []Value
	keys []Value
}

func newProjection(sel *sqlparser.SelectStmt, ev *env) (*projection, error) {
	cols, err := expandItems(sel, ev)
	if err != nil {
		return nil, err
	}
	p := &projection{ev: ev, sel: sel, cols: cols, orderCol: make([]int, len(sel.OrderBy))}
	for i := range sel.OrderBy {
		p.orderCol[i] = orderColumn(sel.OrderBy[i].Expr, cols)
	}
	grouped := len(sel.GroupBy) > 0 || sel.Having != nil && isAggregate(sel.Having)
	for i := range cols {
		grouped = grouped || cols[i].expr != nil && isAggregate(cols[i].expr)
	}
	if grouped {
		p.groups = newGrouping(sel, ev)
	}
	if len(sel.OrderBy) > 0 && sel.Limit != nil && !sel.Distinct &&
		rowFree(sel.Limit.Count) && rowFree(sel.Limit.Offset) {
		// A bad LIMIT takes the full path, which reports it.
		count, off, err := evalLimit(sel.Limit, ev)
		if err == nil && off <= math.MaxInt-count {
			p.top, p.offset = newTopK(sel.OrderBy, off+count), off
		}
	}
	return p, nil
}

// leadColumn returns the column of the first table that the first ORDER BY
// key reads as is, or -1 when that key is anything else.
func (p *projection) leadColumn() int {
	e := p.sel.OrderBy[0].Expr
	if j := p.orderCol[0]; j >= 0 {
		e = p.cols[j].expr
	}
	c, ok := e.(*sqlparser.ColumnRef)
	if !ok {
		return -1
	}
	ti, ci, err := p.ev.resolve(c)
	if err != nil || ti != 0 {
		return -1
	}
	return ci
}

// add consumes the joined row ev points at; first and sub are its arrival.
func (p *projection) add(first, sub int) error {
	if p.groups != nil {
		return p.groups.add(p.ev)
	}
	return p.candidate(first, sub, p.ev.rows)
}

// candidate takes the candidate ev points at — a joined row, or a bound
// group — with the given arrival. rows is the joined row to keep should
// top-k keep the candidate, or nil for a group.
func (p *projection) candidate(first, sub int, rows [][]Value) error {
	if p.top != nil {
		if err := p.keys(p.top.next, nil); err != nil {
			return err
		}
		p.top.offer(first, sub, rows)
		return nil
	}
	out, err := p.row()
	if err != nil {
		return err
	}
	var keys []Value
	if len(p.orderCol) > 0 {
		keys = make([]Value, len(p.orderCol))
		if err := p.keys(keys, out); err != nil {
			return err
		}
	}
	p.rows = append(p.rows, sortableRow{out: out, keys: keys})
	return nil
}

// finish produces the result once every joined row has been added.
func (p *projection) finish() (*Rows, error) {
	ev, sel := p.ev, p.sel
	if g := p.groups; g != nil {
		groups := g.done(ev)
		for i, gs := range groups {
			g.bind(ev, gs)
			if sel.Having != nil {
				v, err := ev.eval(sel.Having)
				if err != nil {
					return nil, err
				}
				if !IsTruthy(v) {
					continue
				}
			}
			if err := p.candidate(i, 0, nil); err != nil {
				return nil, err
			}
		}
	}
	names := make([]string, len(p.cols))
	for i := range p.cols {
		names[i] = p.cols[i].name
	}
	res := &Rows{Columns: names}

	if p.top != nil {
		best := p.top.sorted()
		best = best[min(p.offset, len(best)):]
		res.Data = make([][]Value, 0, len(best))
		for _, r := range best {
			if p.groups != nil {
				p.groups.bind(ev, p.groups.list[r.first])
			} else {
				ev.rows = r.rows
			}
			out, err := p.row()
			if err != nil {
				return nil, err
			}
			res.Data = append(res.Data, out)
		}
		return res, nil
	}
	ev.aggValues = nil

	rows := p.rows
	if sel.Distinct {
		seen := make(map[string]bool, len(rows))
		dst := rows[:0]
		for _, r := range rows {
			k := KeyOfValues(r.out)
			if !seen[k] {
				seen[k] = true
				dst = append(dst, r)
			}
		}
		rows = dst
	}

	if len(sel.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			return compareKeys(sel.OrderBy, rows[i].keys, rows[j].keys) < 0
		})
	}

	lo, hi := 0, len(rows)
	if sel.Limit != nil {
		count, offset, err := evalLimit(sel.Limit, ev)
		if err != nil {
			return nil, err
		}
		lo = min(offset, len(rows))
		hi = lo + min(count, len(rows)-lo)
	}
	res.Data = make([][]Value, 0, hi-lo)
	for _, r := range rows[lo:hi] {
		res.Data = append(res.Data, r.out)
	}
	return res, nil
}

func evalLimit(l *sqlparser.Limit, ev *env) (count, offset int, err error) {
	cv, err := ev.eval(l.Count)
	if err != nil {
		return 0, 0, err
	}
	if count, err = limitInt(cv, "count"); err != nil || l.Offset == nil {
		return count, 0, err
	}
	ov, err := ev.eval(l.Offset)
	if err != nil {
		return 0, 0, err
	}
	offset, err = limitInt(ov, "offset")
	return count, offset, err
}

// limitInt converts a LIMIT count or offset, saturating at math.MaxInt.
func limitInt(v Value, what string) (int, error) {
	f, ok := ToFloat(v)
	if !ok || !(f >= 0) {
		return 0, fmt.Errorf("memdb: bad LIMIT %s %v", what, v)
	}
	if f >= math.MaxInt {
		return math.MaxInt, nil
	}
	return int(f), nil
}

// rowFree reports whether e, if present, is a literal or a placeholder, so
// its value is known before any row is read.
func rowFree(e sqlparser.Expr) bool {
	switch e.(type) {
	case nil, *sqlparser.Literal, *sqlparser.Placeholder:
		return true
	}
	return false
}

// orderColumn returns the output column an ORDER BY expression reads, or -1.
func orderColumn(oe sqlparser.Expr, cols []outputColumn) int {
	// An unqualified column naming an output alias/column uses the output
	// value (SQL alias visibility in ORDER BY).
	if c, ok := oe.(*sqlparser.ColumnRef); ok && c.Table == "" {
		for j := range cols {
			if cols[j].name == c.Name && !cols[j].isStar {
				return j
			}
		}
	}
	// An expression textually matching a select item uses its value (covers
	// ORDER BY MAX(x) with SELECT MAX(x)).
	text := oe.String()
	for j := range cols {
		if cols[j].expr != nil && cols[j].expr.String() == text {
			return j
		}
	}
	return -1
}

// value evaluates the column for the row ev is pointed at.
func (c *outputColumn) value(ev *env) (Value, error) {
	if !c.isStar {
		return ev.eval(c.expr)
	}
	if r := ev.rows[c.star.ti]; r != nil {
		return r[c.star.ci], nil
	}
	return nil, nil // unmatched LEFT JOIN side
}

// row builds the output row of the candidate env is pointed at.
func (p *projection) row() ([]Value, error) {
	out := make([]Value, len(p.cols))
	for i := range p.cols {
		v, err := p.cols[i].value(p.ev)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// keys fills dst with the ORDER BY keys of the candidate env is pointed at.
// out is its output row, or nil when none was built; a key bound to an
// output column then evaluates that column alone.
func (p *projection) keys(dst, out []Value) error {
	for i, j := range p.orderCol {
		var v Value
		var err error
		switch {
		case j < 0:
			v, err = p.ev.eval(p.sel.OrderBy[i].Expr)
		case out != nil:
			v = out[j]
		default:
			v, err = p.cols[j].value(p.ev)
		}
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// compareKeys orders two ORDER BY key tuples.
func compareKeys(order []sqlparser.OrderItem, a, b []Value) int {
	for i := range order {
		if c := Compare(a[i], b[i]); c != 0 {
			if order[i].Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// topK keeps the first k candidates in (ORDER BY keys, arrival) order —
// the rows a stable sort of all of them in arrival order would start with,
// whatever order they are offered in. It is a max-heap rooted at the last
// survivor, so a candidate that does not displace the root costs one
// comparison and no allocation. Storage grows with the survivors, never
// beyond the candidates offered or a probe's candidate count.
type topK struct {
	order   []sqlparser.OrderItem
	k       int
	heap    []ranked
	keySlab []Value   // survivors' keys, len(order) values each
	rowSlab [][]Value // survivors' joined rows
	next    []Value   // keys of the candidate about to be offered
}

// ranked is a survivor: its sort keys, its joined row (nil for a group)
// and its arrival.
type ranked struct {
	keys       []Value
	rows       [][]Value
	first, sub int
}

func newTopK(order []sqlparser.OrderItem, k int) *topK {
	return &topK{order: order, k: k, next: make([]Value, len(order))}
}

// compare orders two candidates by keys, then by arrival.
func (t *topK) compare(a, b *ranked) int {
	if c := compareKeys(t.order, a.keys, b.keys); c != 0 {
		return c
	}
	if c := cmp.Compare(a.first, b.first); c != 0 {
		return c
	}
	return cmp.Compare(a.sub, b.sub)
}

// offer considers the candidate with keys t.next, the given arrival and
// joined row, copying the row only if the candidate is kept.
func (t *topK) offer(first, sub int, rows [][]Value) {
	c := ranked{keys: t.next, first: first, sub: sub}
	if n := len(t.heap); n < t.k {
		w := len(t.next)
		t.keySlab = append(t.keySlab, t.next...)
		c.keys = t.keySlab[n*w : (n+1)*w : (n+1)*w]
		if rows != nil {
			w := len(rows)
			t.rowSlab = append(t.rowSlab, rows...)
			c.rows = t.rowSlab[n*w : (n+1)*w : (n+1)*w]
		}
		t.heap = append(t.heap, c)
		for i := n; i > 0; {
			parent := (i - 1) / 2
			if t.compare(&t.heap[i], &t.heap[parent]) <= 0 {
				break
			}
			t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
			i = parent
		}
		return
	}
	if t.k == 0 || t.compare(&c, &t.heap[0]) >= 0 {
		return
	}
	root := &t.heap[0]
	copy(root.keys, t.next)
	copy(root.rows, rows)
	root.first, root.sub = first, sub
	for i := 0; ; {
		last := i
		if c := 2*i + 1; c < len(t.heap) && t.compare(&t.heap[c], &t.heap[last]) > 0 {
			last = c
		}
		if c := 2*i + 2; c < len(t.heap) && t.compare(&t.heap[c], &t.heap[last]) > 0 {
			last = c
		}
		if last == i {
			return
		}
		t.heap[i], t.heap[last] = t.heap[last], t.heap[i]
		i = last
	}
}

// reserve sizes the survivors' storage for n candidates of the given
// number of tables each, or for k when n is larger, so a probe whose
// candidates are known fills the heap without growing it.
func (t *topK) reserve(n, tables int) {
	n = min(n, t.k)
	t.heap = slices.Grow(t.heap, n)
	t.keySlab = slices.Grow(t.keySlab, n*len(t.order))
	t.rowSlab = slices.Grow(t.rowSlab, n*tables)
}

// excludes reports whether top-k rejects every candidate whose first key is
// v or worse: it holds k survivors and v is strictly worse than the first
// key of the last of them. Survivors only improve, so this stays true.
func (t *topK) excludes(v Value) bool {
	if n := len(t.heap); n == 0 || n < t.k {
		return false
	}
	c := Compare(v, t.heap[0].keys[0])
	if t.order[0].Desc {
		c = -c
	}
	return c > 0
}

// sorted returns the survivors in (keys, arrival) order.
func (t *topK) sorted() []ranked {
	slices.SortFunc(t.heap, func(a, b ranked) int { return t.compare(&a, &b) })
	return t.heap
}

// grouping folds joined rows into groups, in order of first appearance,
// feeding every aggregate of the statement.
type grouping struct {
	by    []sqlparser.Expr
	aggs  []*sqlparser.FuncExpr
	byKey map[string]int // group key -> index in list
	list  []*groupState
	kv    []Value
	key   []byte
}

// newGrouping also binds the statement's aggregate calls to their result
// slots on ev.
func newGrouping(sel *sqlparser.SelectStmt, ev *env) *grouping {
	aggs, slot := collectAggregates(sel)
	ev.aggSlot = slot
	return &grouping{
		by:    sel.GroupBy,
		aggs:  aggs,
		byKey: make(map[string]int),
		kv:    make([]Value, len(sel.GroupBy)),
	}
}

// add folds the joined row ev points at into its group; only a new group
// copies the row.
func (g *grouping) add(ev *env) error {
	for i, e := range g.by {
		v, err := ev.eval(e)
		if err != nil {
			return err
		}
		g.kv[i] = v
	}
	g.key = datasource.AppendKeyOfValues(g.key[:0], g.kv)
	i, ok := g.byKey[string(g.key)]
	if !ok {
		i = len(g.list)
		g.byKey[string(g.key)] = i
		g.list = append(g.list, newGroupState(slices.Clone(ev.rows), len(g.aggs)))
	}
	gs := g.list[i]
	for j, ae := range g.aggs {
		if err := gs.accs[j].observe(ev, ae); err != nil {
			return err
		}
	}
	return nil
}

// done returns the groups and readies ev for bind. An aggregate query with
// no GROUP BY and no rows still yields one (empty-group) row: COUNT(*) = 0,
// MIN/MAX/SUM/AVG = NULL.
func (g *grouping) done(ev *env) []*groupState {
	if len(g.list) == 0 && len(g.by) == 0 {
		g.list = append(g.list, newGroupState(make([][]Value, len(ev.tables)), len(g.aggs)))
	}
	ev.aggValues = make([]Value, len(g.aggs))
	return g.list
}

// bind points ev at a group: its first row and its aggregate results.
func (g *grouping) bind(ev *env, gs *groupState) {
	ev.rows = gs.firstRow
	for j, ae := range g.aggs {
		ev.aggValues[j] = gs.accs[j].resultFor(ae.Name)
	}
}

// collectAggregates gathers the distinct aggregate expressions appearing in
// the select list, HAVING and ORDER BY, and maps every occurrence to the
// index of its distinct expression.
func collectAggregates(sel *sqlparser.SelectStmt) ([]*sqlparser.FuncExpr, map[*sqlparser.FuncExpr]int) {
	var out []*sqlparser.FuncExpr
	slot := make(map[*sqlparser.FuncExpr]int)
	byText := make(map[string]int)
	add := func(e sqlparser.Expr) {
		sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
			if f, ok := x.(*sqlparser.FuncExpr); ok && aggregateNames[f.Name] {
				text := f.String()
				i, seen := byText[text]
				if !seen {
					i = len(out)
					byText[text] = i
					out = append(out, f)
				}
				slot[f] = i
				return false
			}
			return true
		})
	}
	for i := range sel.Items {
		if sel.Items[i].Expr != nil {
			add(sel.Items[i].Expr)
		}
	}
	if sel.Having != nil {
		add(sel.Having)
	}
	for i := range sel.OrderBy {
		add(sel.OrderBy[i].Expr)
	}
	return out, slot
}

type groupState struct {
	firstRow [][]Value
	accs     []aggAcc
}

func newGroupState(firstRow [][]Value, aggs int) *groupState {
	return &groupState{firstRow: firstRow, accs: make([]aggAcc, aggs)}
}

// aggAcc accumulates one aggregate over a group.
type aggAcc struct {
	count    int64
	sumF     float64
	sumInt   bool
	sumI     int64
	min, max Value
	distinct map[string]bool
}

func (a *aggAcc) observe(ev *env, f *sqlparser.FuncExpr) error {
	if f.Star {
		a.count++
		return nil
	}
	if len(f.Args) != 1 {
		return fmt.Errorf("memdb: aggregate %s wants 1 argument", f.Name)
	}
	v, err := ev.eval(f.Args[0])
	if err != nil {
		return err
	}
	if v == nil {
		return nil // aggregates skip NULLs
	}
	if f.Distinct {
		if a.distinct == nil {
			a.distinct = make(map[string]bool)
		}
		k := KeyString(v)
		if a.distinct[k] {
			return nil
		}
		a.distinct[k] = true
	}
	a.count++
	if fv, ok := ToFloat(v); ok {
		a.sumF += fv
		if iv, isInt := v.(int64); isInt {
			if a.count == 1 {
				a.sumInt = true
			}
			a.sumI += iv
		} else {
			a.sumInt = false
		}
	}
	if a.min == nil || Compare(v, a.min) < 0 {
		a.min = v
	}
	if a.max == nil || Compare(v, a.max) > 0 {
		a.max = v
	}
	return nil
}

func (a *aggAcc) resultFor(name string) Value {
	switch name {
	case "COUNT":
		return a.count
	case "SUM":
		if a.count == 0 {
			return nil
		}
		if a.sumInt {
			return a.sumI
		}
		return a.sumF
	case "AVG":
		if a.count == 0 {
			return nil
		}
		return a.sumF / float64(a.count)
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	}
	return nil
}
