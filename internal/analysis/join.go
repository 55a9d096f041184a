package analysis

// Joined rows of an INSERT. A read joining the written table to another
// one by that table's key — `items.seller = users.id` — and constraining
// the other table further — `users.region = ?` — cannot be told from an
// INSERT's own values whether the new row shows: the seller's region is in
// another table. Under AC-extraQuery the capture therefore reads, after the
// INSERT executed, the row each such joined column references, and the
// value test binds the other table's columns to it. Reading after the
// write keeps the snapshot sound: a write to that row before the read is
// seen, and one after it sweeps the pages it changes itself.

import (
	"context"
	"slices"

	"autowebcache/internal/datasource"
	"autowebcache/internal/sqlparser"
)

// joinRef is a top-level `table.col = ref.key` conjunct of a read's
// predicate, where key is ref's auto-increment key and the predicate also
// constrains other columns of ref: the row of ref a row of table joins is
// the one whose key equals its col.
type joinRef struct {
	table, col string
	ref, key   string
	sql        string // SELECT * FROM ref WHERE key = ?
}

// joinedRows is one capture of a joinRef: the rows of ref whose key equals
// the inserted row's col.
type joinedRows struct {
	col, ref string
	rows     *datasource.Rows
}

// collectJoinRefs fills info.joinRefs from the top-level equi-join
// conjuncts of the read predicate (see joinRef). Run it before
// mergeSubqueryDeps adds the subqueries' tables.
func (info *TemplateInfo) collectJoinRefs(schema Schema) {
	ai, ok := schema.(autoIncrementer)
	if !ok || info.ReadPred == nil {
		return
	}
	conj := conjunctsOf(info.ReadPred)
	// constrains reports whether a conjunct other than skip uses a column
	// of table.
	constrains := func(skip int, table string) bool {
		found := false
		for i, c := range conj {
			if i == skip {
				continue
			}
			sqlparser.WalkExprs(c, func(x sqlparser.Expr) bool {
				if cr, ok := x.(*sqlparser.ColumnRef); ok {
					if t, ok := info.resolveColumn(cr, schema); !ok || t == table {
						found = true
					}
				}
				return !found
			})
		}
		return found
	}
	once := func(table string) bool {
		n := 0
		for _, t := range info.Tables {
			if t == table {
				n++
			}
		}
		return n == 1
	}
	for i, c := range conj {
		b, ok := c.(*sqlparser.BinaryExpr)
		if !ok || b.Op != sqlparser.OpEq {
			continue
		}
		l, lok := b.Left.(*sqlparser.ColumnRef)
		r, rok := b.Right.(*sqlparser.ColumnRef)
		if !lok || !rok {
			continue
		}
		lt, lok := info.resolveColumn(l, schema)
		rt, rok := info.resolveColumn(r, schema)
		if !lok || !rok || lt == rt || !once(lt) || !once(rt) {
			continue
		}
		for _, side := range [2][2]*sqlparser.ColumnRef{{l, r}, {r, l}} {
			fk, key := side[0], side[1]
			ft, kt := lt, rt
			if fk == r {
				ft, kt = rt, lt
			}
			if col, ok := ai.AutoIncrementColumn(kt); ok && col == key.Name && constrains(i, kt) {
				info.joinRefs = append(info.joinRefs, joinRef{table: ft, col: fk.Name, ref: kt, key: col,
					sql: "SELECT * FROM " + kt + " WHERE " + col + " = ?"})
			}
		}
	}
}

// registerJoins records the join references of a newly analysed read with
// a window, so CaptureJoined knows which rows an INSERT into their tables
// references. Only windowed reads pay for the lookup: their pages are the
// ones a spared INSERT keeps whole. The caller holds e.mu.
func (e *Engine) registerJoins(info *TemplateInfo) {
	if info.window == nil {
		return
	}
	for _, j := range info.joinRefs {
		if !slices.ContainsFunc(e.joins[j.table], func(h joinRef) bool { return h.col == j.col && h.ref == j.ref }) {
			e.joins[j.table] = append(e.joins[j.table], j)
		}
	}
}

// CaptureJoined completes the capture of an executed INSERT under
// StrategyExtraQuery: for every column of the new row that some analysed
// read joins to another table's key, it reads the rows carrying the
// column's value (see joinRef). Call it AFTER the write executed. On error
// the capture keeps no joined rows, which is sound.
func (e *Engine) CaptureJoined(ctx context.Context, conn datasource.Conn, w *WriteCapture) error {
	if e.strategy != StrategyExtraQuery || conn == nil {
		return nil
	}
	wi, err := e.Template(w.SQL)
	if err != nil || wi.Kind != KindInsert {
		return err
	}
	e.mu.RLock()
	refs := e.joins[wi.Tables[0]]
	e.mu.RUnlock()
	var joined []joinedRows
	for _, j := range refs {
		ref, present := wi.InsertVals[j.col]
		if !present {
			continue
		}
		v, known := ref.Resolve(w.Args)
		if !known || v == nil {
			continue
		}
		rows, err := conn.Query(ctx, j.sql, v)
		if err != nil {
			return err
		}
		e.extraQueries.Add(1)
		joined = append(joined, joinedRows{col: j.col, ref: j.ref, rows: rows})
	}
	w.joined = joined
	return nil
}

// joinedRow returns the one row of table ref that the inserted row joins
// through read's top-level conjunct on col, when the capture read exactly
// one. Only AC-extraQuery reads joined rows, so only it binds them.
func (pw *PreparedWrite) joinedRow(read *TemplateInfo, ref string) (*datasource.Rows, bool) {
	if pw.e.strategy != StrategyExtraQuery {
		return nil, false
	}
	for _, j := range read.joinRefs {
		if j.table != pw.table || j.ref != ref {
			continue
		}
		for _, got := range pw.w.joined {
			if got.col == j.col && got.ref == ref && got.rows.Len() == 1 {
				return got.rows, true
			}
		}
	}
	return nil, false
}
