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
	ev := &env{pl: noTables, args: args}
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

// matchRowsLocked returns the row ids of the run's table matching its
// WHERE clause, using an exact index probe when one applies, as a SELECT's
// first table does. The ids are the run's scratch. The caller holds at
// least a read lock on the table.
func (db *DB) matchRowsLocked(r *run) ([]int, error) {
	defer func() { db.rowsScanned.Add(uint64(r.scanned)) }()
	t := r.tables[0].tbl
	probed, pr, err := r.candidates(0)
	if err != nil {
		return nil, err
	}
	scan, skip := pr == nil, skipCond(pr)
	n := len(probed)
	if scan {
		n = len(t.rows)
	}
	ids := r.ids[:0]
	for i := 0; i < n; i++ {
		id := i
		if !scan {
			id = probed[i]
		}
		ok, err := r.match(0, skip, t.rows[id])
		if err != nil {
			return nil, err
		}
		if ok {
			ids = append(ids, id)
		}
	}
	r.ids = ids
	return ids, nil
}

// startWrite plans an UPDATE or DELETE and runs its IN-subqueries, before
// the caller takes the table's write lock (they acquire their own read
// locks; see resolveSubqueries). The caller returns the run with plan.put.
func (db *DB) startWrite(s *stmt, args []Value) (*run, error) {
	pl, err := db.planFor(s)
	if err != nil {
		return nil, err
	}
	r := pl.get(args)
	if _, err := db.resolveSubqueries(r); err != nil {
		pl.put(r)
		return nil, err
	}
	return r, nil
}

func (db *DB) execUpdate(s *stmt, up *sqlparser.UpdateStmt, args []Value) (Result, error) {
	r, err := db.startWrite(s, args)
	if err != nil {
		return Result{}, err
	}
	defer r.plan.put(r)
	t := r.tables[0].tbl
	setIdx := make([]int, len(up.Set))
	for i := range up.Set {
		ci, ok := t.colIdx[up.Set[i].Column]
		if !ok {
			return Result{}, fmt.Errorf("memdb: table %s has no column %s", up.Table, up.Set[i].Column)
		}
		setIdx[i] = ci
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ids, err := db.matchRowsLocked(r)
	if err != nil {
		return Result{}, err
	}
	// Evaluate all SET expressions against the pre-update row, then apply
	// (SQL semantics: SET a = b, b = a swaps).
	newVals := make([]Value, len(up.Set))
	for _, id := range ids {
		r.ev.rows[0] = t.rows[id]
		for i := range up.Set {
			v, err := r.ev.eval(up.Set[i].Value)
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

func (db *DB) execDelete(s *stmt, args []Value) (Result, error) {
	r, err := db.startWrite(s, args)
	if err != nil {
		return Result{}, err
	}
	defer r.plan.put(r)
	t := r.tables[0].tbl
	t.mu.Lock()
	defer t.mu.Unlock()
	ids, err := db.matchRowsLocked(r)
	if err != nil {
		return Result{}, err
	}
	for _, id := range ids {
		t.deleteRowLocked(id)
	}
	return Result{RowsAffected: int64(len(ids))}, nil
}
