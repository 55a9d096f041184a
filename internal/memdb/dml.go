package memdb

import (
	"fmt"

	"autowebcache/internal/sqlparser"
)

func (db *DB) execInsert(ins *sqlparser.InsertStmt, args []Value) (Result, error) {
	t, err := db.lookupTable(ins.Table)
	if err != nil {
		return Result{}, err
	}
	cols := ins.Columns
	if len(cols) == 0 {
		cols = make([]string, len(t.spec.Columns))
		for i, c := range t.spec.Columns {
			cols[i] = c.Name
		}
	}
	colIdx := make([]int, len(cols))
	for i, name := range cols {
		ci, ok := t.colIdx[name]
		if !ok {
			return Result{}, fmt.Errorf("memdb: table %s has no column %s", ins.Table, name)
		}
		colIdx[i] = ci
	}
	ev := &env{args: args}
	// Pre-evaluate all rows before taking the lock.
	prepared := make([][]Value, 0, len(ins.Rows))
	for _, exprRow := range ins.Rows {
		if len(exprRow) != len(cols) {
			return Result{}, fmt.Errorf("memdb: INSERT into %s: %d values for %d columns", ins.Table, len(exprRow), len(cols))
		}
		row := make([]Value, len(t.spec.Columns))
		for i, e := range exprRow {
			v, err := ev.eval(e)
			if err != nil {
				return Result{}, err
			}
			cv, err := coerce(v, t.spec.Columns[colIdx[i]].Type)
			if err != nil {
				return Result{}, fmt.Errorf("memdb: INSERT into %s column %s: %w", ins.Table, cols[i], err)
			}
			row[colIdx[i]] = cv
		}
		prepared = append(prepared, row)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var res Result
	for _, row := range prepared {
		_, lastID := t.insertRowLocked(row)
		res.LastInsertID = lastID
		res.RowsAffected++
	}
	return res, nil
}

// matchRowsLocked returns the row ids of t matching the WHERE clause, using
// an exact index probe when one applies, as a SELECT's first table does.
// The caller holds at least a read lock on t.
func (db *DB) matchRowsLocked(t *table, ref string, where sqlparser.Expr, ev *env) ([]int, error) {
	ev.tables = []boundTable{{ref: ref, tbl: t}}
	ev.rows = make([][]Value, 1)
	p := newPlan(ev)
	for _, c := range splitConjuncts(where, nil) {
		p.addCond(0, c)
	}
	defer func() { db.rowsScanned.Add(uint64(p.scanned)) }()
	probed, pr, err := p.candidates(0)
	if err != nil {
		return nil, err
	}
	scan, skip := pr == nil, skipCond(pr)
	n := len(probed)
	if scan {
		n = len(t.rows)
	}
	var ids []int
	for i := 0; i < n; i++ {
		id := i
		if !scan {
			id = probed[i]
		}
		ok, err := p.match(0, skip, t.rows[id])
		if err != nil {
			return nil, err
		}
		if ok {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

func (db *DB) execUpdate(up *sqlparser.UpdateStmt, args []Value) (Result, error) {
	t, err := db.lookupTable(up.Table)
	if err != nil {
		return Result{}, err
	}
	setIdx := make([]int, len(up.Set))
	for i := range up.Set {
		ci, ok := t.colIdx[up.Set[i].Column]
		if !ok {
			return Result{}, fmt.Errorf("memdb: table %s has no column %s", up.Table, up.Set[i].Column)
		}
		setIdx[i] = ci
	}
	ev := &env{args: args}
	// IN-subqueries in the WHERE clause run before the write lock is taken
	// (they acquire their own read locks; see resolveSubqueries).
	if _, err := db.resolveSubqueries([]sqlparser.Expr{up.Where}, args, ev); err != nil {
		return Result{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ids, err := db.matchRowsLocked(t, up.Table, up.Where, ev)
	if err != nil {
		return Result{}, err
	}
	for _, id := range ids {
		ev.rows[0] = t.rows[id]
		// Evaluate all SET expressions against the pre-update row, then
		// apply (SQL semantics: SET a = b, b = a swaps).
		newVals := make([]Value, len(up.Set))
		for i := range up.Set {
			v, err := ev.eval(up.Set[i].Value)
			if err != nil {
				return Result{}, err
			}
			cv, err := coerce(v, t.spec.Columns[setIdx[i]].Type)
			if err != nil {
				return Result{}, fmt.Errorf("memdb: UPDATE %s column %s: %w", up.Table, up.Set[i].Column, err)
			}
			newVals[i] = cv
		}
		for i := range up.Set {
			t.updateColLocked(id, setIdx[i], newVals[i])
		}
	}
	return Result{RowsAffected: int64(len(ids))}, nil
}

func (db *DB) execDelete(del *sqlparser.DeleteStmt, args []Value) (Result, error) {
	t, err := db.lookupTable(del.Table)
	if err != nil {
		return Result{}, err
	}
	ev := &env{args: args}
	if _, err := db.resolveSubqueries([]sqlparser.Expr{del.Where}, args, ev); err != nil {
		return Result{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ids, err := db.matchRowsLocked(t, del.Table, del.Where, ev)
	if err != nil {
		return Result{}, err
	}
	for _, id := range ids {
		t.deleteRowLocked(id)
	}
	return Result{RowsAffected: int64(len(ids))}, nil
}
