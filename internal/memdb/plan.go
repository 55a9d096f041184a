package memdb

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"autowebcache/internal/sqlparser"
)

// stmt is one entry of the statement cache: a parse shared by every
// execution of its SQL text, and the plan compiled from it.
type stmt struct {
	parsed sqlparser.Statement
	plan   atomic.Pointer[plan]
}

// statement returns the cached statement for sql, parsing it on first use.
// Query templates in web applications form a small fixed set (§3.2: "In
// practice, there are usually a small fixed number of different query
// templates"), so after warm-up a statement costs one map lookup.
func (db *DB) statement(sql string) (*stmt, error) {
	db.stmtMu.RLock()
	s := db.stmts[sql]
	db.stmtMu.RUnlock()
	if s != nil {
		db.stmtHits.Add(1)
		return s, nil
	}
	parsed, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	db.stmtMu.Lock()
	if s = db.stmts[sql]; s == nil {
		if db.stmts == nil {
			db.stmts = make(map[string]*stmt)
		}
		s = &stmt{parsed: parsed}
		db.stmts[sql] = s
	}
	db.stmtMu.Unlock()
	db.stmtMisses.Add(1)
	return s, nil
}

// planFor returns the plan of a SELECT, UPDATE or DELETE for the current
// schema version, compiling it when none is cached or the cached one
// predates a CREATE TABLE or CREATE INDEX. Callers racing on a stale plan
// may each compile one; every such plan is correct and the last one stored
// is kept.
func (db *DB) planFor(s *stmt) (*plan, error) {
	version := db.version.Load()
	if pl := s.plan.Load(); pl != nil && pl.version == version {
		return pl, nil
	}
	var pl *plan
	var err error
	switch x := s.parsed.(type) {
	case *sqlparser.SelectStmt:
		pl, err = db.compileSelect(x)
	case *sqlparser.UpdateStmt:
		pl, err = db.compileWrite(x.Table, x.Where, x)
	case *sqlparser.DeleteStmt:
		pl, err = db.compileWrite(x.Table, x.Where, x)
	default:
		err = fmt.Errorf("memdb: cannot plan %T", s.parsed)
	}
	if err != nil {
		return nil, err
	}
	pl.version = version
	s.plan.Store(pl)
	return pl, nil
}

// plan is a statement compiled against one schema version: everything an
// execution derives from the statement and the schema alone. It is shared
// by every concurrent execution and never written after compilation; what
// one execution binds and finds lives in its run, and runs holds the
// finished runs whose scratch the next executions reuse.
type plan struct {
	version uint64
	runs    sync.Pool
	tables  []boundTable
	// locks are the distinct tables in name order, the order a reader locks
	// them in.
	locks []*table
	// slots resolves every column reference of the statement, outside its
	// subqueries, that names a column of tables. A reference missing here
	// fails when it is evaluated.
	slots map[*sqlparser.ColumnRef]colSlot
	// conds[k] holds the conjuncts whose highest referenced table is k; they
	// are checked as soon as table k is bound.
	conds [][]*bound
	// probes[k] holds the index probes that can replace a scan of table k.
	probes   [][]indexProbe
	leftJoin []bool // is table k the right side of a LEFT JOIN
	// constConds are WHERE conjuncts that read no table (e.g. `WHERE 1 = 0`);
	// they gate the whole query.
	constConds []*bound
	subs       []subquery

	// The output side of a SELECT.
	sel      *sqlparser.SelectStmt
	cols     []outputColumn
	names    []string
	orderCol []int // per ORDER BY item, the output column it reads, or -1
	// orderKeys[i] is ORDER BY item i bound to the plan when it reads no
	// output column, else nil.
	orderKeys []*bound
	grouped   bool
	// aggs are the statement's distinct aggregate calls; aggSlot maps every
	// aggregate call to its index in aggs.
	aggs    []*sqlparser.FuncExpr
	aggSlot map[*sqlparser.FuncExpr]int
	// aggCols[j] is the slot of aggs[j]'s argument when that is a bare
	// column, or has ti = -1.
	aggCols []colSlot
	// topK is set when the statement has an ORDER BY, a LIMIT known before
	// any row is read, and no DISTINCT (which needs every output row).
	topK bool
	// lead is the first table's column that the first ORDER BY key reads,
	// when top-k applies without grouping, or -1.
	lead int
	// countProbe is set on a one-table SELECT COUNT(*) whose only conjunct
	// is an equality its index can answer: the count is that bucket's length
	// when the probe is exact.
	countProbe bool
	// valueList is set on an IN-subquery's plan that needs only its first
	// column's values: one column, no grouping, no LIMIT and no ORDER BY
	// key of its own. Its run streams that column into the outer run's value
	// list and builds no result.
	valueList bool
}

// subquery is an uncorrelated IN-subquery and its own plan.
type subquery struct {
	in   *sqlparser.InExpr
	plan *plan
}

// noTables is the plan of a statement that reads no table (INSERT VALUES):
// any column reference it evaluates is unknown.
var noTables = &plan{}

// indexProbe is an index lookup that can stand in for one conjunct of a
// join level: `col = eq` or `col IN (…)`, where col is an indexed column of
// the level's table and the other side references only earlier tables.
type indexProbe struct {
	ix   *hashIndex
	cond int            // the conjunct's position in its level's conds
	eq   sqlparser.Expr // the value side of `col = eq`, or nil
	in   *sqlparser.InExpr
}

// bindTable appends a FROM or JOIN table to the plan.
func (pl *plan) bindTable(db *DB, ref sqlparser.TableRef) error {
	t, err := db.lookupTable(ref.Name)
	if err != nil {
		return err
	}
	pl.tables = append(pl.tables, boundTable{ref: ref.RefName(), tbl: t})
	return nil
}

// compileSubqueries compiles every uncorrelated IN-subquery reachable from
// the given clauses. Correlated ones fail here: their outer column
// references are unknown in their own scope.
func (db *DB) compileSubqueries(pl *plan, clauses ...sqlparser.Expr) error {
	for _, e := range clauses {
		var err error
		sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
			if in, ok := x.(*sqlparser.InExpr); ok && in.Select != nil && err == nil {
				var sub *plan
				if sub, err = db.compileSelect(in.Select); err == nil {
					sub.valueList = sub.streamsValues()
					pl.subs = append(pl.subs, subquery{in: in, plan: sub})
				}
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// bindColumns resolves every column reference of stmt into slots and sizes
// the per-level condition lists.
func (pl *plan) bindColumns(s sqlparser.Statement) {
	pl.slots = make(map[*sqlparser.ColumnRef]colSlot)
	sqlparser.StatementExprs(s, func(e sqlparser.Expr) {
		sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
			if c, ok := x.(*sqlparser.ColumnRef); ok {
				if ti, ci, err := lookupColumn(pl.tables, c); err == nil {
					pl.slots[c] = colSlot{ti, ci}
				}
			}
			return true
		})
	})
	n := len(pl.tables)
	pl.conds = make([][]*bound, n)
	pl.probes = make([][]indexProbe, n)
	pl.leftJoin = make([]bool, n)
}

// compileWrite plans the WHERE clause of an UPDATE or DELETE: one level
// over the written table.
func (db *DB) compileWrite(name string, where sqlparser.Expr, s sqlparser.Statement) (*plan, error) {
	pl := &plan{}
	if err := pl.bindTable(db, sqlparser.TableRef{Name: name}); err != nil {
		return nil, err
	}
	if err := db.compileSubqueries(pl, where); err != nil {
		return nil, err
	}
	pl.bindColumns(s)
	for _, c := range splitConjuncts(where, nil) {
		pl.addCond(0, c)
	}
	return pl, nil
}

// compileSelect plans a SELECT: binds its tables, compiles its subqueries,
// files its conjuncts by level with their index probes, and resolves its
// output columns, ORDER BY keys and aggregates.
func (db *DB) compileSelect(sel *sqlparser.SelectStmt) (*plan, error) {
	pl := &plan{sel: sel}
	for i := range sel.From {
		if err := pl.bindTable(db, sel.From[i]); err != nil {
			return nil, err
		}
	}
	onConds := make([]sqlparser.Expr, len(sel.From)) // nil for FROM tables
	for i := range sel.Joins {
		if err := pl.bindTable(db, sel.Joins[i].Table); err != nil {
			return nil, err
		}
		onConds = append(onConds, sel.Joins[i].On)
	}
	if err := db.compileSubqueries(pl, append([]sqlparser.Expr{sel.Where, sel.Having}, onConds...)...); err != nil {
		return nil, err
	}
	pl.bindColumns(sel)
	for i := range sel.Joins {
		pl.leftJoin[len(sel.From)+i] = sel.Joins[i].Kind == sqlparser.JoinLeft
	}
	// Distribute conjuncts from WHERE and JOIN ... ON clauses.
	for k, on := range onConds {
		for _, c := range splitConjuncts(on, nil) {
			level, err := pl.maxTableIndex(c)
			if err != nil {
				return nil, err
			}
			// ON conditions belong to their join level even if they only
			// reference earlier tables.
			pl.addCond(max(level, k), c)
		}
	}
	for _, c := range splitConjuncts(sel.Where, nil) {
		level, err := pl.maxTableIndex(c)
		if err != nil {
			return nil, err
		}
		if level < 0 {
			pl.constConds = append(pl.constConds, pl.bind(c))
			continue
		}
		pl.addCond(level, c)
	}
	if err := pl.compileOutput(); err != nil {
		return nil, err
	}
	pl.countProbe = len(pl.tables) == 1 && len(pl.subs) == 0 && len(pl.constConds) == 0 &&
		len(pl.conds[0]) == 1 && len(pl.probes[0]) == 1 && pl.probes[0][0].eq != nil &&
		len(pl.cols) == 1 && isCountStar(pl.cols[0].expr) && len(sel.GroupBy) == 0 &&
		sel.Having == nil && !sel.Distinct && len(sel.OrderBy) == 0 && sel.Limit == nil
	seen := make(map[*table]bool, len(pl.tables))
	for _, bt := range pl.tables {
		if !seen[bt.tbl] {
			seen[bt.tbl] = true
			pl.locks = append(pl.locks, bt.tbl)
		}
	}
	sort.Slice(pl.locks, func(i, j int) bool { return pl.locks[i].spec.Name < pl.locks[j].spec.Name })
	return pl, nil
}

// compileOutput resolves the select list, the ORDER BY keys and the
// aggregates, and decides whether top-k can keep the first rows of the
// ordering.
func (pl *plan) compileOutput() error {
	sel := pl.sel
	if err := pl.expandItems(); err != nil {
		return err
	}
	pl.names = make([]string, len(pl.cols))
	for i := range pl.cols {
		pl.names[i] = pl.cols[i].name
		if !pl.cols[i].isStar {
			pl.cols[i].bound = pl.bind(pl.cols[i].expr)
		}
	}
	pl.orderCol = make([]int, len(sel.OrderBy))
	pl.orderKeys = make([]*bound, len(sel.OrderBy))
	for i := range sel.OrderBy {
		if pl.orderCol[i] = orderColumn(sel.OrderBy[i].Expr, pl.cols); pl.orderCol[i] < 0 {
			pl.orderKeys[i] = pl.bind(sel.OrderBy[i].Expr)
		}
	}
	pl.grouped = len(sel.GroupBy) > 0 || sel.Having != nil && isAggregate(sel.Having)
	for i := range pl.cols {
		pl.grouped = pl.grouped || pl.cols[i].expr != nil && isAggregate(pl.cols[i].expr)
	}
	if pl.grouped {
		pl.aggs, pl.aggSlot = collectAggregates(sel)
		pl.aggCols = make([]colSlot, len(pl.aggs))
		for j, f := range pl.aggs {
			pl.aggCols[j] = colSlot{-1, -1}
			if f.Star || len(f.Args) != 1 {
				continue
			}
			if c, ok := f.Args[0].(*sqlparser.ColumnRef); ok {
				if s, ok := pl.slots[c]; ok {
					pl.aggCols[j] = s
				}
			}
		}
	}
	pl.topK = len(sel.OrderBy) > 0 && sel.Limit != nil && !sel.Distinct &&
		rowFree(sel.Limit.Count) && rowFree(sel.Limit.Offset)
	pl.lead = -1
	if pl.topK && !pl.grouped {
		pl.lead = pl.leadColumn()
	}
	return nil
}

// streamsValues reports whether an IN-subquery over pl can stream its
// value list: a result row would hold only that value, every row counts,
// and nothing else it evaluates per row could fail.
func (pl *plan) streamsValues() bool {
	if pl.grouped || pl.sel.Limit != nil || len(pl.cols) != 1 {
		return false
	}
	for _, j := range pl.orderCol {
		if j != 0 {
			return false
		}
	}
	return true
}

// expandItems resolves the select list to concrete output columns.
func (pl *plan) expandItems() error {
	sel := pl.sel
	for i := range sel.Items {
		item := &sel.Items[i]
		if item.Star {
			for ti := range pl.tables {
				if item.Table != "" && pl.tables[ti].ref != item.Table {
					continue
				}
				for ci, col := range pl.tables[ti].tbl.spec.Columns {
					oc := outputColumn{name: col.Name, isStar: true}
					oc.star.ti, oc.star.ci = ti, ci
					pl.cols = append(pl.cols, oc)
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
		pl.cols = append(pl.cols, outputColumn{name: name, expr: item.Expr})
	}
	if len(pl.cols) == 0 {
		return fmt.Errorf("memdb: empty select list")
	}
	return nil
}

// leadColumn returns the column of the first table that the first ORDER BY
// key reads as is, or -1 when that key is anything else.
func (pl *plan) leadColumn() int {
	e := pl.sel.OrderBy[0].Expr
	if j := pl.orderCol[0]; j >= 0 {
		e = pl.cols[j].expr
	}
	c, ok := e.(*sqlparser.ColumnRef)
	if !ok {
		return -1
	}
	ti, ci, err := pl.resolve(c)
	if err != nil || ti != 0 {
		return -1
	}
	return ci
}

// bind compiles x against the plan's column slots.
func (pl *plan) bind(x sqlparser.Expr) *bound {
	b := &bound{src: x}
	switch v := x.(type) {
	case *sqlparser.ColumnRef:
		b.slot, b.col = pl.slots[v]
	case *sqlparser.BinaryExpr:
		b.op, b.l, b.r = v.Op, pl.bind(v.Left), pl.bind(v.Right)
	}
	return b
}

// resolve finds the (table index, column index) of a column reference.
func (pl *plan) resolve(c *sqlparser.ColumnRef) (int, int, error) {
	if s, ok := pl.slots[c]; ok {
		return s.ti, s.ci, nil
	}
	return lookupColumn(pl.tables, c)
}

// maxTableIndex returns the highest table index referenced by e, or -1 when
// the expression references no columns. An error is returned for unknown
// references.
func (pl *plan) maxTableIndex(e sqlparser.Expr) (int, error) {
	maxIdx := -1
	var walkErr error
	sqlparser.WalkExprs(e, func(x sqlparser.Expr) bool {
		c, ok := x.(*sqlparser.ColumnRef)
		if !ok {
			return true
		}
		ti, _, err := pl.resolve(c)
		if err != nil {
			walkErr = err
			return false
		}
		maxIdx = max(maxIdx, ti)
		return true
	})
	return maxIdx, walkErr
}

// addCond files conjunct c at the given level, and registers it as an index
// probe when it is an equality or a positive IN on one of the level's
// indexed columns whose other side references only earlier tables.
func (pl *plan) addCond(level int, c sqlparser.Expr) {
	pl.conds[level] = append(pl.conds[level], pl.bind(c))
	pr := indexProbe{cond: len(pl.conds[level]) - 1}
	switch x := c.(type) {
	case *sqlparser.BinaryExpr:
		if x.Op != sqlparser.OpEq {
			return
		}
		if pr.ix = pl.index(level, x.Left); pr.ix != nil && pl.bound(level, x.Right) {
			pr.eq = x.Right
		} else if pr.ix = pl.index(level, x.Right); pr.ix != nil && pl.bound(level, x.Left) {
			pr.eq = x.Left
		} else {
			return
		}
	case *sqlparser.InExpr:
		if x.Not {
			return
		}
		if pr.ix = pl.index(level, x.Left); pr.ix == nil {
			return
		}
		for _, e := range x.List {
			if !pl.bound(level, e) {
				return
			}
		}
		pr.in = x
	default:
		return
	}
	pl.probes[level] = append(pl.probes[level], pr)
}

// index returns the index on e when e is an indexed column of table level.
func (pl *plan) index(level int, e sqlparser.Expr) *hashIndex {
	col, ok := e.(*sqlparser.ColumnRef)
	if !ok {
		return nil
	}
	ti, ci, err := pl.resolve(col)
	if err != nil || ti != level {
		return nil
	}
	return pl.tables[ti].tbl.index(ci)
}

// bound reports whether e references only tables bound before level.
func (pl *plan) bound(level int, e sqlparser.Expr) bool {
	l, err := pl.maxTableIndex(e)
	return err == nil && l < level
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

// isCountStar reports whether e is COUNT(*).
func isCountStar(e sqlparser.Expr) bool {
	f, ok := e.(*sqlparser.FuncExpr)
	return ok && f.Name == "COUNT" && f.Star && !f.Distinct
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
