package memdb

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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
// its output so far. A finished run goes back to its plan's pool with its
// scratch — the buffers below and the projection's — kept for the next
// execution, and every reference to a table row or value cleared (see
// plan.get and plan.put).
type run struct {
	*plan
	ev    env
	out   projection
	union [][]int   // per-level scratch for the row ids of IN probes, if any
	subq  [][]Value // per-subquery scratch for their value lists, if any
	ids   []int     // the row ids an UPDATE or DELETE matched
	// reverse visits the first table's candidates last to first, and lead is
	// the plan's lead column; both are set only when top-k runs.
	reverse bool
	lead    int
	// first and sub are the arrival of the joined row being built: the
	// forward position of its first-table row among that table's
	// candidates, and how many joined rows that row produced before it.
	first, sub int
	scanned    int // rows visited during execution
	// own is ev.rows' storage, one slot per table; the projection points
	// ev.rows at kept rows while it finishes.
	own [][]Value
}

// maxPooledValues bounds the scratch a pooled run keeps: a run whose
// buffers outgrew it (a large result, subquery or write) is dropped rather
// than kept pinned in its plan's pool.
const maxPooledValues = 1 << 16

// get returns a run of pl for args, recycled from an earlier execution when
// the pool holds one.
func (pl *plan) get(args []Value) *run {
	r, _ := pl.runs.Get().(*run)
	if r == nil {
		r = &run{plan: pl, own: make([][]Value, len(pl.tables))}
		r.out.run = r
	}
	r.ev = env{pl: pl, rows: r.own, args: args}
	r.reverse, r.lead, r.first, r.sub, r.scanned = false, -1, 0, 0, 0
	return r
}

// put clears every reference r holds to a table row or value and returns it
// to pl's pool, unless its scratch has grown past maxPooledValues.
func (pl *plan) put(r *run) {
	p := &r.out
	big := max(cap(p.outs), cap(p.topk.rowSlab), cap(p.grp.rows), cap(r.ids)) > maxPooledValues
	for i := range r.subq {
		clear(r.subq[i])
		r.subq[i] = r.subq[i][:0]
		big = big || cap(r.subq[i]) > maxPooledValues
	}
	if big {
		return
	}
	clear(r.own)
	r.ev = env{}
	p.reset()
	pl.runs.Put(r)
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
	if len(r.subq) < len(r.subs) {
		r.subq = make([][]Value, len(r.subs))
	}
	r.ev.subq = r.subq[:len(r.subs)]
	for i, s := range r.subs {
		// Placeholder indices are global across the whole statement, so the
		// inner select indexes the same args vector.
		vals, n, err := db.subqueryValues(s.plan, r.ev.args, r.ev.subq[i][:0])
		r.ev.subq[i] = vals
		scanned += n
		if err != nil {
			return scanned, err
		}
	}
	return scanned, nil
}

// subqueryValues appends the first column of subquery pl's rows to dst. A
// value-list plan streams that column from its join into dst; any other
// runs as a SELECT and is read off its result.
func (db *DB) subqueryValues(pl *plan, args, dst []Value) ([]Value, int, error) {
	if !pl.valueList {
		rows, n, err := db.execSelect(pl, args)
		if err != nil {
			return dst, n, err
		}
		for _, row := range rows.Data {
			if len(row) > 0 {
				dst = append(dst, row[0])
			}
		}
		return dst, n, nil
	}
	r := pl.get(args)
	defer pl.put(r)
	r.out.vals = dst
	_, n, err := db.selectRun(r)
	dst, r.out.vals = r.out.vals, nil
	return dst, n, err
}

// execSelect runs a compiled select and also reports the number of rows
// visited, which drives the simulated per-row service time.
func (db *DB) execSelect(pl *plan, args []Value) (*Rows, int, error) {
	r := pl.get(args)
	defer pl.put(r)
	return db.selectRun(r)
}

// selectRun executes r: its IN-subqueries, its join and its projection.
func (db *DB) selectRun(r *run) (*Rows, int, error) {
	pl := r.plan
	// IN-subqueries run first, before any outer lock is taken.
	subScanned, err := db.resolveSubqueries(r)
	if err != nil {
		return nil, subScanned, err
	}
	r.out.start()
	// Constant-only conjuncts (e.g. `WHERE 1 = 0`) gate the whole query.
	for _, c := range pl.constConds {
		v, err := r.ev.evalBound(c)
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

	if pl.countProbe {
		ids, exact, err := r.lookup(0, &pl.probes[0][0])
		if err != nil {
			return nil, 0, err
		}
		if exact {
			res := r.out.result(1)
			res.Data[0][0] = int64(len(ids))
			return res, subScanned, nil
		}
	}

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
		vals, resolved := ev.subquery(pr.in)
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
		v, err := r.ev.evalBound(c)
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
	name  string
	expr  sqlparser.Expr // nil for star columns
	bound *bound         // expr bound to the plan
	star  struct {
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
	// is built for a full stable sort: candidate i's row is
	// outs[i*len(cols):] and its ORDER BY keys sortKeys[i*len(orderCol):],
	// and order lists the candidates in result order.
	top      *topK
	offset   int
	outs     []Value
	sortKeys []Value
	order    []int
	// vals collects the first column of every candidate of a value-list
	// plan, which builds no result.
	vals []Value
	// grp and topk are the storage groups and top point at.
	grp  grouping
	topk topK
}

// start readies the projection for the run's arguments.
func (p *projection) start() {
	if p.grouped {
		p.grp.start(p.plan)
		p.groups = &p.grp
	}
	if p.topK {
		// A bad LIMIT takes the full path, which reports it.
		count, off, err := evalLimit(p.sel.Limit, &p.ev)
		if err == nil && off <= math.MaxInt-count {
			p.topk.start(p.sel.OrderBy, off+count)
			p.top, p.offset = &p.topk, off
		}
	}
}

// reset clears the projection's scratch for the next run.
func (p *projection) reset() {
	p.grp.reset()
	p.topk.reset()
	clear(p.outs)
	clear(p.sortKeys)
	p.outs, p.sortKeys, p.order = p.outs[:0], p.sortKeys[:0], p.order[:0]
	p.groups, p.top, p.offset = nil, nil, 0
}

// add consumes the joined row ev points at; first and sub are its arrival.
func (p *projection) add(first, sub int) error {
	if p.valueList {
		v, err := p.cols[0].value(&p.ev)
		if err != nil {
			return err
		}
		p.vals = append(p.vals, v)
		return nil
	}
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
	var out, keys []Value
	p.outs, out = extend(p.outs, len(p.cols))
	if err := p.row(out); err != nil {
		return err
	}
	p.sortKeys, keys = extend(p.sortKeys, len(p.orderCol))
	if err := p.keys(keys, out); err != nil {
		return err
	}
	p.order = append(p.order, len(p.order))
	return nil
}

// extend grows s by n values and returns it and those values.
func extend(s []Value, n int) ([]Value, []Value) {
	s = slices.Grow(s, n)[:len(s)+n]
	return s, s[len(s)-n:]
}

// finish produces the result once every joined row has been added. A
// value-list plan has none.
func (p *projection) finish() (*Rows, error) {
	if p.valueList {
		return nil, nil
	}
	ev, sel := &p.ev, p.sel
	if g := p.groups; g != nil {
		g.done(ev)
		for i := range g.n {
			g.bind(ev, i)
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

	if p.top != nil {
		best := p.top.sorted()
		best = best[min(p.offset, len(best)):]
		res := p.result(len(best))
		for i, r := range best {
			if p.groups != nil {
				p.groups.bind(ev, r.first)
			} else {
				ev.rows = r.rows
			}
			if err := p.row(res.Data[i]); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	ev.aggValues = nil

	order := p.order
	if sel.Distinct {
		seen := make(map[string]bool, len(order))
		kept := order[:0]
		for _, c := range order {
			if k := KeyOfValues(p.outOf(c)); !seen[k] {
				seen[k] = true
				kept = append(kept, c)
			}
		}
		order = kept
	}

	if len(sel.OrderBy) > 0 {
		w := len(p.orderCol)
		slices.SortStableFunc(order, func(a, b int) int {
			return compareKeys(sel.OrderBy, p.sortKeys[a*w:(a+1)*w], p.sortKeys[b*w:(b+1)*w])
		})
	}

	lo, hi := 0, len(order)
	if sel.Limit != nil {
		count, offset, err := evalLimit(sel.Limit, ev)
		if err != nil {
			return nil, err
		}
		lo = min(offset, len(order))
		hi = lo + min(count, len(order)-lo)
	}
	res := p.result(hi - lo)
	for i, c := range order[lo:hi] {
		copy(res.Data[i], p.outOf(c))
	}
	return res, nil
}

// outOf returns the output row of full-path candidate c.
func (p *projection) outOf(c int) []Value {
	w := len(p.cols)
	return p.outs[c*w : (c+1)*w]
}

// result returns a result of n rows to fill, each a capped window of one
// slab: it shares nothing with the plan or the run, so a caller may modify
// it, and appending to one row never reaches the next.
func (p *projection) result(n int) *Rows {
	w := len(p.cols)
	res := &Rows{Columns: slices.Clone(p.names), Data: make([][]Value, n)}
	slab := make([]Value, n*w)
	for i := range res.Data {
		res.Data[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return res
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
		return ev.evalBound(c.bound)
	}
	if r := ev.rows[c.star.ti]; r != nil {
		return r[c.star.ci], nil
	}
	return nil, nil // unmatched LEFT JOIN side
}

// row fills out with the output row of the candidate env is pointed at.
func (p *projection) row(out []Value) error {
	for i := range p.cols {
		v, err := p.cols[i].value(&p.ev)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
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
			v, err = p.ev.evalBound(p.orderKeys[i])
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

// start readies an empty topK to keep k candidates in the given order.
func (t *topK) start(order []sqlparser.OrderItem, k int) {
	t.order, t.k = order, k
	t.next = slices.Grow(t.next[:0], len(order))[:len(order)]
}

// reset empties t, keeping its storage.
func (t *topK) reset() {
	clear(t.heap)
	clear(t.keySlab)
	clear(t.rowSlab)
	clear(t.next)
	t.heap, t.keySlab, t.rowSlab = t.heap[:0], t.keySlab[:0], t.rowSlab[:0]
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
// feeding every aggregate of the statement. Group i's first joined row is
// rows[i*tables:] and its accumulators are accs[i*len(aggs):].
type grouping struct {
	by      []sqlparser.Expr
	aggs    []*sqlparser.FuncExpr
	aggCols []colSlot
	tables  int
	byKey   map[string]int // group key -> group index
	n       int            // groups found
	rows    [][]Value
	accs    []aggAcc
	kv      []Value
	key     []byte
	results []Value // the bound group's aggregate results
}

// start readies an empty grouping for pl.
func (g *grouping) start(pl *plan) {
	g.by, g.aggs, g.aggCols, g.tables = pl.sel.GroupBy, pl.aggs, pl.aggCols, len(pl.tables)
	if g.byKey == nil {
		g.byKey = make(map[string]int)
	}
	g.kv = slices.Grow(g.kv[:0], len(g.by))[:len(g.by)]
	g.results = slices.Grow(g.results[:0], len(g.aggs))[:len(g.aggs)]
}

// reset empties g, keeping its storage.
func (g *grouping) reset() {
	clear(g.byKey)
	clear(g.rows)
	clear(g.accs)
	clear(g.kv)
	clear(g.results)
	g.n, g.rows, g.accs = 0, g.rows[:0], g.accs[:0]
}

// add folds the joined row ev points at into its group; only a new group
// copies the row. Without GROUP BY every row is in the one group.
func (g *grouping) add(ev *env) error {
	i := 0
	if len(g.by) > 0 {
		for j, e := range g.by {
			v, err := ev.eval(e)
			if err != nil {
				return err
			}
			g.kv[j] = v
		}
		g.key = datasource.AppendKeyOfValues(g.key[:0], g.kv)
		var ok bool
		if i, ok = g.byKey[string(g.key)]; !ok {
			i = g.n
			g.byKey[string(g.key)] = i
			g.open(ev.rows)
		}
	} else if g.n == 0 {
		g.open(ev.rows)
	}
	accs := g.accs[i*len(g.aggs):]
	for j, ae := range g.aggs {
		if err := accs[j].observe(ev, ae, g.aggCols[j]); err != nil {
			return err
		}
	}
	return nil
}

// open starts a group whose first joined row is rows, or the all-NULL row
// when rows is nil. Its accumulators are zero: reset cleared them.
func (g *grouping) open(rows [][]Value) {
	if rows == nil {
		for range g.tables {
			g.rows = append(g.rows, nil)
		}
	} else {
		g.rows = append(g.rows, rows...)
	}
	g.accs = slices.Grow(g.accs, len(g.aggs))[:len(g.accs)+len(g.aggs)]
	g.n++
}

// done readies ev for bind. An aggregate query with no GROUP BY and no rows
// still yields one (empty-group) row: COUNT(*) = 0, MIN/MAX/SUM/AVG = NULL.
func (g *grouping) done(ev *env) {
	if g.n == 0 && len(g.by) == 0 {
		g.open(nil)
	}
	ev.aggValues = g.results
}

// bind points ev at group i: its first row and its aggregate results.
func (g *grouping) bind(ev *env, i int) {
	ev.rows = g.rows[i*g.tables : (i+1)*g.tables]
	accs := g.accs[i*len(g.aggs):]
	for j, ae := range g.aggs {
		ev.aggValues[j] = accs[j].resultFor(ae.Name)
	}
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

// observe folds the value of f's argument for the row ev points at. col is
// the argument's slot when it is a bare column, read without evaluating it,
// or has ti < 0.
func (a *aggAcc) observe(ev *env, f *sqlparser.FuncExpr, col colSlot) error {
	if f.Star {
		a.count++
		return nil
	}
	var v Value
	if col.ti >= 0 {
		if row := ev.rows[col.ti]; row != nil {
			v = row[col.ci]
		}
	} else {
		if len(f.Args) != 1 {
			return fmt.Errorf("memdb: aggregate %s wants 1 argument", f.Name)
		}
		var err error
		if v, err = ev.eval(f.Args[0]); err != nil {
			return err
		}
	}
	if v == nil {
		return nil // aggregates skip NULLs
	}
	// COUNT, MIN and MAX read only their own accumulator.
	if !f.Distinct {
		switch f.Name {
		case "COUNT":
			a.count++
			return nil
		case "MIN":
			if a.min == nil || Compare(v, a.min) < 0 {
				a.min = v
			}
			return nil
		case "MAX":
			if a.max == nil || Compare(v, a.max) > 0 {
				a.max = v
			}
			return nil
		}
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
