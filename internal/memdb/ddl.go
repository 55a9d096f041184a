package memdb

import (
	"fmt"

	"autowebcache/internal/sqlparser"
)

// execCreateTable realises a parsed CREATE TABLE — the bootstrap path a
// datasource-level seeder takes, as opposed to the programmatic CreateTable
// API. IF NOT EXISTS makes re-running a bootstrap script a no-op.
func (db *DB) execCreateTable(s *sqlparser.CreateTableStmt) (Result, error) {
	spec := TableSpec{Name: s.Table}
	for _, c := range s.Cols {
		col := Column{Name: c.Name, AutoIncrement: c.AutoIncrement}
		switch c.Type {
		case "INTEGER":
			col.Type = TypeInt
		case "REAL":
			col.Type = TypeFloat
		default:
			col.Type = TypeString
		}
		spec.Columns = append(spec.Columns, col)
	}
	if s.IfNotExists && db.HasTable(s.Table) {
		return Result{}, nil
	}
	if err := db.CreateTable(spec); err != nil {
		return Result{}, err
	}
	return Result{}, nil
}

// execCreateIndex builds a hash index on existing columns, back-filling it
// over the rows already stored. Re-creating an index that exists is a no-op
// (memdb indexes are keyed by column, so the statement's index name only
// matters to name-aware backends).
func (db *DB) execCreateIndex(s *sqlparser.CreateIndexStmt) (Result, error) {
	t, err := db.lookupTable(s.Table)
	if err != nil {
		return Result{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, col := range s.Columns {
		ci, ok := t.colIdx[col]
		if !ok {
			return Result{}, fmt.Errorf("memdb: table %s has no column %s to index", s.Table, col)
		}
		if _, exists := t.indexes[ci]; exists {
			continue
		}
		ix := newHashIndex(t.spec.Columns[ci].Type)
		for rowID, row := range t.rows {
			if row != nil {
				ix.add(row[ci], rowID)
			}
		}
		t.indexes[ci] = ix
	}
	return Result{}, nil
}
