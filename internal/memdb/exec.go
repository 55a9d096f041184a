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

// run is one execution of a plan: the rows it binds, what it has found, and
// its output so far.
type run struct {
	*plan
	ev    env
	out   projection
	union [][]int // per-level scratch for the row ids of IN probes, if any
	// reverse visits the first table's candidates last to first, and lead is
	// the plan's lead column; both are set only when top-k runs.
	reverse bool
	lead    int
	// first and sub are the arrival of the joined row being built: the
	// forward position of its first-table row among that table's
	// candidates, and how many joined rows that row produced before it.
	first, sub int
	scanned    int // rows visited during execution
	rowBuf     [4][]Value
}

func newRun(pl *plan, args []Value) *run {
	r := &run{plan: pl, lead: -1}
	r.ev = env{pl: pl, args: args}
	if n := len(pl.tables); n <= len(r.rowBuf) {
		r.ev.rows = r.rowBuf[:n]
	} else {
		r.ev.rows = make([][]Value, n)
	}
	r.out.run = r
	return r
}

// resolveSubqueries pre-executes the plan's IN-subqueries and stores their
// first-column value lists on the run's env. It must run before any outer
// table lock is taken: each subquery is an independent SELECT acquiring
// (and releasing) its own read locks in canonical order, so nesting the
// evaluation inside an outer lock would reintroduce the lock-ordering
// deadlock that canonical ordering prevents.
func (db *DB) resolveSubqueries(r *run) (scanned int, err error) {
	if len(r.subs) == 0 {
		return 0, nil
	}
	r.ev.subq = make(map[*sqlparser.InExpr][]Value, len(r.subs))
	for _, s := range r.subs {
		// Placeholder indices are global across the whole statement, so the
		// inner select indexes the same args vector.
		rows, n, err := db.execSelect(s.plan, r.ev.args)
		scanned += n
		if err != nil {
			return scanned, err
		}
		vals := make([]Value, 0, rows.Len())
		for _, row := range rows.Data {
			if len(row) > 0 {
				vals = append(vals, row[0])
			}
		}
		r.ev.subq[s.in] = vals
	}
	return scanned, nil
}

// execSelect runs a compiled select and also reports the number of rows
// visited, which drives the simulated per-row service time.
func (db *DB) execSelect(pl *plan, args []Value) (*Rows, int, error) {
	r := newRun(pl, args)
	// IN-subqueries run first, before any outer lock is taken.
	subScanned, err := db.resolveSubqueries(r)
	if err != nil {
		return nil, subScanned, err
	}
	r.out.start()
	// Constant-only conjuncts (e.g. `WHERE 1 = 0`) gate the whole query.
	for _, c := range pl.constConds {
		v, err := r.ev.eval(c)
		if err != nil {
			return nil, 0, err
		}
		if !IsTruthy(v) {
			rows, err := r.out.finish()
			return rows, subScanned, err
		}
	}

	// Lock all involved tables for read in a canonical order. Writers take a
	// single table's write lock, so ordering readers by name prevents
	// deadlock. The projection reads the rows it kept until it finishes.
	lockTablesRead(pl.locks)
	defer unlockTablesRead(pl.locks)

	// Enumerate joined rows via recursive nested loops with index probes.
	// When the projection keeps the first rows of an ordering, the first
	// table is visited in the direction of its first key: last to first for
	// DESC, so rows stored oldest first arrive newest first and a later row
	// rarely displaces a kept one, and a bucket ordered by that key is
	// walked best first and left as soon as top-k is settled.
	if r.out.top != nil && r.out.groups == nil {
		r.reverse = pl.sel.OrderBy[0].Desc
		r.lead = pl.lead
	}
	err = r.joinLevel(0)
	db.rowsScanned.Add(uint64(r.scanned))
	if err != nil {
		return nil, 0, err
	}
	rows, err := r.out.finish()
	return rows, r.scanned + subScanned, err
}

// candidates returns table k's candidate row ids from its first exact
// probe, and that probe, whose conjunct those rows satisfy by construction.
// The probe is nil when none is exact: the level then scans, visiting every
// row and checking every conjunct.
func (r *run) candidates(k int) (ids []int, pr *indexProbe, err error) {
	for i := range r.probes[k] {
		pr := &r.probes[k][i]
		ids, ok, err := r.lookup(k, pr)
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
func (r *run) lookup(k int, pr *indexProbe) (ids []int, ok bool, err error) {
	ev := &r.ev
	if pr.in == nil {
		v, err := ev.eval(pr.eq)
		if err != nil {
			return nil, false, err
		}
		ids, ok := pr.ix.probe(v)
		return ids, ok, nil
	}
	if r.union == nil {
		r.union = make([][]int, len(r.conds))
	}
	union := r.union[k][:0]
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
	r.union[k] = union
	return union, true, nil
}

// match binds row to table k and reports whether it passes the level's
// conjuncts other than skip. A deleted slot (nil) is not a row and is not
// counted as visited.
func (r *run) match(k, skip int, row []Value) (bool, error) {
	if row == nil {
		return false, nil
	}
	r.scanned++
	r.ev.rows[k] = row
	for i, c := range r.conds[k] {
		if i == skip {
			continue
		}
		v, err := r.ev.eval(c)
		if err != nil || !IsTruthy(v) {
			return false, err
		}
	}
	return true, nil
}

// lockTablesRead read-locks tables, which are distinct and in name order.
func lockTablesRead(ts []*table) {
	for _, t := range ts {
		t.mu.RLock()
	}
}

func unlockTablesRead(ts []*table) {
	for i := len(ts) - 1; i >= 0; i-- {
		ts[i].mu.RUnlock()
	}
}

// joinLevel binds table k to each of its candidate rows and recurses. Past
// the last table, ev.rows is one complete joined row, which goes straight
// to the projection.
func (r *run) joinLevel(k int) error {
	if k == len(r.tables) {
		err := r.out.add(r.first, r.sub)
		r.sub++
		return err
	}
	t := r.tables[k].tbl
	ids, pr, err := r.candidates(k)
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
	top := r.out.top
	bounded := false
	if k == 0 && !scan && top != nil && r.out.groups == nil {
		top.reserve(n, len(r.tables))
		bounded = pr.in == nil && r.lead >= 0 && pr.ix.order == r.lead
	}
	matched := false
	for i := 0; i < n; i++ {
		pos := i
		if k == 0 && r.reverse {
			pos = n - 1 - i
		}
		id := pos
		if !scan {
			id = ids[pos]
		}
		if bounded && top.excludes(t.rows[id][r.lead]) {
			break
		}
		ok, err := r.match(k, skip, t.rows[id])
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		matched = true
		if k == 0 {
			r.first, r.sub = pos, 0
		}
		if err := r.joinLevel(k + 1); err != nil {
			return err
		}
	}
	r.ev.rows[k] = nil
	if !matched && r.leftJoin[k] {
		// LEFT JOIN with no match: continue with the NULL row.
		return r.joinLevel(k + 1)
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

// projection is the output side of one execution of a SELECT. It consumes
// joined rows as the join produces them and applies aggregation, HAVING,
// DISTINCT, ORDER BY and LIMIT.
type projection struct {
	*run
	groups *grouping // nil unless the statement aggregates
	// top keeps the offset+count first candidates when the plan allows
	// top-k and the LIMIT is valid. Otherwise every candidate's output row
	// is built into rows for a full stable sort.
	top    *topK
	offset int
	rows   []sortableRow
}

type sortableRow struct {
	out  []Value
	keys []Value
}

// start readies the projection for the run's arguments.
func (p *projection) start() {
	if p.grouped {
		p.groups = newGrouping(p.plan)
	}
	if p.topK {
		// A bad LIMIT takes the full path, which reports it.
		count, off, err := evalLimit(p.sel.Limit, &p.ev)
		if err == nil && off <= math.MaxInt-count {
			p.top, p.offset = newTopK(p.sel.OrderBy, off+count), off
		}
	}
}

// add consumes the joined row ev points at; first and sub are its arrival.
func (p *projection) add(first, sub int) error {
	if p.groups != nil {
		return p.groups.add(&p.ev)
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
	ev, sel := &p.ev, p.sel
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
	// Result rows share nothing with the plan: a caller may modify them.
	res := &Rows{Columns: slices.Clone(p.names)}

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
		v, err := p.cols[i].value(&p.ev)
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
			v, err = p.cols[j].value(&p.ev)
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

func newGrouping(pl *plan) *grouping {
	return &grouping{
		by:    pl.sel.GroupBy,
		aggs:  pl.aggs,
		byKey: make(map[string]int),
		kv:    make([]Value, len(pl.sel.GroupBy)),
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
		g.list = append(g.list, newGroupState(make([][]Value, len(ev.pl.tables)), len(g.aggs)))
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
