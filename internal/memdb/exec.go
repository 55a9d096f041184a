package memdb

import (
	"fmt"
	"sort"

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

// eqLookup describes an equality usable for an index probe at one join
// level: table ti's column ci must equal the value of expr (which references
// only earlier tables or constants).
type eqLookup struct {
	ci   int
	expr sqlparser.Expr
}

// selectPlan is the per-level execution plan for a select.
type selectPlan struct {
	ev *env
	// conds[k] holds the conjuncts whose highest referenced table is k; they
	// are checked as soon as table k is bound.
	conds [][]sqlparser.Expr
	// lookups[k] holds index-probe candidates for table k.
	lookups  [][]eqLookup
	leftJoin []bool // is table k the right side of a LEFT JOIN
	scanned  int    // rows visited during execution
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
	leftJoin := make([]bool, len(sel.From))
	onConds := make([]sqlparser.Expr, len(sel.From)) // nil for FROM tables
	for i := range sel.Joins {
		j := &sel.Joins[i]
		t, err := db.lookupTable(j.Table.Name)
		if err != nil {
			return nil, 0, err
		}
		ev.tables = append(ev.tables, boundTable{ref: j.Table.RefName(), tbl: t})
		leftJoin = append(leftJoin, j.Kind == sqlparser.JoinLeft)
		onConds = append(onConds, j.On)
	}
	n := len(ev.tables)
	ev.rows = make([][]Value, n)

	// IN-subqueries run first, before any outer lock is taken.
	subClauses := append([]sqlparser.Expr{sel.Where, sel.Having}, onConds...)
	subScanned, err := db.resolveSubqueries(subClauses, args, ev)
	if err != nil {
		return nil, subScanned, err
	}

	plan := &selectPlan{
		ev:       ev,
		conds:    make([][]sqlparser.Expr, n),
		lookups:  make([][]eqLookup, n),
		leftJoin: leftJoin,
	}

	// Distribute conjuncts from WHERE and JOIN ... ON clauses.
	var conjuncts []sqlparser.Expr
	conjuncts = splitConjuncts(sel.Where, conjuncts)
	for k, on := range onConds {
		for _, c := range splitConjuncts(on, nil) {
			level, err := maxTableIndex(c, ev)
			if err != nil {
				return nil, 0, err
			}
			// ON conditions belong to their join level even if they only
			// reference earlier tables.
			if level < k {
				level = k
			}
			plan.conds[level] = append(plan.conds[level], c)
			plan.addLookup(level, c)
		}
	}
	var constConds []sqlparser.Expr
	for _, c := range conjuncts {
		level, err := maxTableIndex(c, ev)
		if err != nil {
			return nil, 0, err
		}
		if level < 0 {
			constConds = append(constConds, c)
			continue
		}
		plan.conds[level] = append(plan.conds[level], c)
		plan.addLookup(level, c)
	}

	// Constant-only conjuncts (e.g. `WHERE 1 = 0`) gate the whole query.
	for _, c := range constConds {
		v, err := ev.eval(c)
		if err != nil {
			return nil, 0, err
		}
		if !IsTruthy(v) {
			rows, err := db.project(sel, ev, nil)
			return rows, subScanned, err
		}
	}

	// Lock all involved tables for read in a canonical order. Writers take a
	// single table's write lock, so ordering readers by name prevents
	// deadlock.
	locked := lockTablesRead(ev.tables)
	defer unlockTablesRead(locked)

	// Enumerate joined rows via recursive nested loops with index probes.
	var joined [][][]Value
	if err := db.joinLevel(plan, 0, &joined); err != nil {
		return nil, 0, err
	}
	rows, err := db.project(sel, ev, joined)
	return rows, plan.scanned + subScanned, err
}

// addLookup registers c as an index-probe candidate at the given level when
// it is an equality between a column of that level's table and an expression
// referencing only earlier tables.
func (p *selectPlan) addLookup(level int, c sqlparser.Expr) {
	b, ok := c.(*sqlparser.BinaryExpr)
	if !ok || b.Op != sqlparser.OpEq {
		return
	}
	try := func(colSide, valSide sqlparser.Expr) bool {
		col, ok := colSide.(*sqlparser.ColumnRef)
		if !ok {
			return false
		}
		ti, ci, err := p.ev.resolve(col)
		if err != nil || ti != level {
			return false
		}
		if _, indexed := p.ev.tables[ti].tbl.indexes[ci]; !indexed {
			return false
		}
		vLevel, err := maxTableIndex(valSide, p.ev)
		if err != nil || vLevel >= level {
			return false
		}
		p.lookups[level] = append(p.lookups[level], eqLookup{ci: ci, expr: valSide})
		return true
	}
	if try(b.Left, b.Right) {
		return
	}
	try(b.Right, b.Left)
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

// joinLevel binds table k to each candidate row and recurses. Joined row
// snapshots are appended to out.
func (db *DB) joinLevel(p *selectPlan, k int, out *[][][]Value) error {
	ev := p.ev
	if k == len(ev.tables) {
		snapshot := make([][]Value, len(ev.rows))
		copy(snapshot, ev.rows)
		*out = append(*out, snapshot)
		return nil
	}
	t := ev.tables[k].tbl

	matched := false
	tryRow := func(row []Value) (bool, error) {
		if row == nil {
			return false, nil
		}
		db.rowsScanned.Add(1)
		p.scanned++
		ev.rows[k] = row
		for _, c := range p.conds[k] {
			v, err := ev.eval(c)
			if err != nil {
				ev.rows[k] = nil
				return false, err
			}
			if !IsTruthy(v) {
				ev.rows[k] = nil
				return false, nil
			}
		}
		matched = true
		err := db.joinLevel(p, k+1, out)
		ev.rows[k] = nil
		return true, err
	}

	// Prefer an index probe when available.
	if len(p.lookups[k]) > 0 {
		lk := p.lookups[k][0]
		val, err := ev.eval(lk.expr)
		if err != nil {
			return err
		}
		ix := t.indexes[lk.ci]
		for _, rowID := range ix.m[KeyString(val)] {
			if _, err := tryRow(t.rows[rowID]); err != nil {
				return err
			}
		}
	} else {
		for _, row := range t.rows {
			if _, err := tryRow(row); err != nil {
				return err
			}
		}
	}

	if !matched && p.leftJoin[k] {
		// LEFT JOIN with no match: bind a NULL row and continue.
		ev.rows[k] = nil
		if err := db.joinLevel(p, k+1, out); err != nil {
			return err
		}
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
	var out []outputColumn
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

// project applies aggregation/grouping, HAVING, DISTINCT, ORDER BY and LIMIT
// to the joined rows and produces the final result.
func (db *DB) project(sel *sqlparser.SelectStmt, ev *env, joined [][][]Value) (*Rows, error) {
	cols, err := expandItems(sel, ev)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(cols))
	for i := range cols {
		names[i] = cols[i].name
	}
	res := &Rows{Columns: names}
	p := &projection{ev: ev, cols: cols, order: sel.OrderBy, orderCol: make([]int, len(sel.OrderBy))}
	for i := range sel.OrderBy {
		p.orderCol[i] = orderColumn(sel.OrderBy[i].Expr, cols)
	}

	grouped := len(sel.GroupBy) > 0
	if !grouped {
		for i := range cols {
			if cols[i].expr != nil && isAggregate(cols[i].expr) {
				grouped = true
				break
			}
		}
		if sel.Having != nil && isAggregate(sel.Having) {
			grouped = true
		}
	}

	// The candidates are the joined rows or, for an aggregate query, the
	// groups; bind(i) points env at candidate i.
	n := len(joined)
	bind := func(i int) { ev.rows = joined[i] }
	var having sqlparser.Expr
	if grouped {
		groups, aggs, err := groupRows(sel, ev, joined)
		if err != nil {
			return nil, err
		}
		n = len(groups)
		ev.aggValues = make([]Value, len(aggs))
		bind = func(i int) {
			g := groups[i]
			ev.rows = g.firstRow
			for j, ae := range aggs {
				ev.aggValues[j] = g.accs[j].resultFor(ae.Name)
			}
		}
		having = sel.Having
	}

	// Top-k: with ORDER BY and a LIMIT known before any row is read, keep
	// only the offset+count first candidates and build output rows only for
	// them. DISTINCT needs every output row, so it takes the full sort.
	var top *topK
	var offset int
	if len(sel.OrderBy) > 0 && sel.Limit != nil && !sel.Distinct &&
		rowFree(sel.Limit.Count) && rowFree(sel.Limit.Offset) {
		count, off, err := evalLimit(sel.Limit, ev)
		if err == nil && count >= 0 && count < n && off >= 0 && off < n-count {
			top, offset = newTopK(sel.OrderBy, off+count), off
		}
	}

	type sortableRow struct {
		out  []Value
		keys []Value
	}
	var rows []sortableRow
	for i := 0; i < n; i++ {
		bind(i)
		if having != nil {
			v, err := ev.eval(having)
			if err != nil {
				return nil, err
			}
			if !IsTruthy(v) {
				continue
			}
		}
		if top != nil {
			if err := p.keys(top.next, nil); err != nil {
				return nil, err
			}
			top.offer(i)
			continue
		}
		out, err := p.row()
		if err != nil {
			return nil, err
		}
		var keys []Value
		if len(sel.OrderBy) > 0 {
			keys = make([]Value, len(sel.OrderBy))
			if err := p.keys(keys, out); err != nil {
				return nil, err
			}
		}
		rows = append(rows, sortableRow{out: out, keys: keys})
	}

	if top != nil {
		best := top.sorted()
		best = best[min(offset, len(best)):]
		res.Data = make([][]Value, 0, len(best))
		for _, r := range best {
			bind(r.seq)
			out, err := p.row()
			if err != nil {
				return nil, err
			}
			res.Data = append(res.Data, out)
		}
		return res, nil
	}
	ev.aggValues = nil

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
		hi = min(lo+count, len(rows))
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
	cf, ok := ToFloat(cv)
	if !ok || cf < 0 {
		return 0, 0, fmt.Errorf("memdb: bad LIMIT count %v", cv)
	}
	count = int(cf)
	if l.Offset != nil {
		ov, err := ev.eval(l.Offset)
		if err != nil {
			return 0, 0, err
		}
		of, ok := ToFloat(ov)
		if !ok || of < 0 {
			return 0, 0, fmt.Errorf("memdb: bad LIMIT offset %v", ov)
		}
		offset = int(of)
	}
	return count, offset, nil
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

// projection is the output side of a SELECT, bound once per statement.
type projection struct {
	ev    *env
	cols  []outputColumn
	order []sqlparser.OrderItem
	// orderCol[i] is the output column ORDER BY item i reads, or -1 when
	// the item is evaluated against the row.
	orderCol []int
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
			v, err = p.ev.eval(p.order[i].Expr)
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
// the rows a stable sort of all of them would start with. It is a max-heap
// rooted at the last survivor, so a candidate that does not displace the
// root costs one comparison and no allocation.
type topK struct {
	order []sqlparser.OrderItem
	k     int
	heap  []ranked
	slab  []Value // key storage, one slot of len(order) values per survivor
	next  []Value // keys of the candidate about to be offered
}

// ranked is a survivor: its sort keys and its arrival index.
type ranked struct {
	keys []Value
	seq  int
}

func newTopK(order []sqlparser.OrderItem, k int) *topK {
	return &topK{
		order: order,
		k:     k,
		heap:  make([]ranked, 0, k),
		slab:  make([]Value, k*len(order)),
		next:  make([]Value, len(order)),
	}
}

// after reports whether survivor i sorts after survivor j; the arrival
// index breaks ties as a stable sort would.
func (t *topK) after(i, j int) bool {
	c := compareKeys(t.order, t.heap[i].keys, t.heap[j].keys)
	return c > 0 || c == 0 && t.heap[i].seq > t.heap[j].seq
}

// offer considers candidate seq, whose keys are in t.next. Candidates must
// arrive in increasing seq order.
func (t *topK) offer(seq int) {
	if n := len(t.heap); n < t.k {
		keys := t.slab[n*len(t.order) : (n+1)*len(t.order)]
		copy(keys, t.next)
		t.heap = append(t.heap, ranked{keys: keys, seq: seq})
		for i := n; i > 0; {
			parent := (i - 1) / 2
			if !t.after(i, parent) {
				break
			}
			t.heap[i], t.heap[parent] = t.heap[parent], t.heap[i]
			i = parent
		}
		return
	}
	// A later arrival with equal keys sorts after the root, so only
	// strictly smaller keys displace it.
	if t.k == 0 || compareKeys(t.order, t.next, t.heap[0].keys) >= 0 {
		return
	}
	copy(t.heap[0].keys, t.next)
	t.heap[0].seq = seq
	for i := 0; ; {
		last := i
		if c := 2*i + 1; c < len(t.heap) && t.after(c, last) {
			last = c
		}
		if c := 2*i + 2; c < len(t.heap) && t.after(c, last) {
			last = c
		}
		if last == i {
			return
		}
		t.heap[i], t.heap[last] = t.heap[last], t.heap[i]
		i = last
	}
}

// sorted returns the survivors in (keys, arrival) order.
func (t *topK) sorted() []ranked {
	sort.Slice(t.heap, func(i, j int) bool { return t.after(j, i) })
	return t.heap
}

// groupRows folds the joined rows into groups, in order of first
// appearance, feeding every aggregate of the statement. It also binds the
// statement's aggregate calls to their result slots on ev.
func groupRows(sel *sqlparser.SelectStmt, ev *env, joined [][][]Value) ([]*groupState, []*sqlparser.FuncExpr, error) {
	aggs, slot := collectAggregates(sel)
	ev.aggSlot = slot
	byKey := make(map[string]*groupState)
	var groups []*groupState
	kv := make([]Value, len(sel.GroupBy))
	for _, jr := range joined {
		ev.rows = jr
		key := ""
		if len(sel.GroupBy) > 0 {
			for i, g := range sel.GroupBy {
				v, err := ev.eval(g)
				if err != nil {
					return nil, nil, err
				}
				kv[i] = v
			}
			key = KeyOfValues(kv)
		}
		g, ok := byKey[key]
		if !ok {
			g = newGroupState(jr, aggs)
			byKey[key] = g
			groups = append(groups, g)
		}
		for i, ae := range aggs {
			if err := g.accs[i].observe(ev, ae); err != nil {
				return nil, nil, err
			}
		}
	}
	// An aggregate query with no GROUP BY and no rows still yields one
	// (empty-group) row: COUNT(*) = 0, MIN/MAX/SUM/AVG = NULL.
	if len(groups) == 0 && len(sel.GroupBy) == 0 {
		groups = append(groups, newGroupState(make([][]Value, len(ev.tables)), aggs))
	}
	return groups, aggs, nil
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
	accs     []*aggAcc
}

func newGroupState(firstRow [][]Value, aggExprs []*sqlparser.FuncExpr) *groupState {
	g := &groupState{firstRow: firstRow, accs: make([]*aggAcc, len(aggExprs))}
	for i := range g.accs {
		g.accs[i] = &aggAcc{}
	}
	return g
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
