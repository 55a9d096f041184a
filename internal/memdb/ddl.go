package memdb

import "autowebcache/internal/sqlparser"

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

// execCreateIndex builds an index, back-filling it over the rows already
// stored: a hash index on one column, or an ordered one on (key, order).
// Re-creating an index that exists is a no-op (memdb indexes are keyed by
// column, so the statement's index name only matters to name-aware
// backends). The schema version moves, so the next execution of every
// statement is planned with the index.
func (db *DB) execCreateIndex(s *sqlparser.CreateIndexStmt) (Result, error) {
	t, err := db.lookupTable(s.Table)
	if err != nil {
		return Result{}, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	err = t.addIndexLocked(s.Columns)
	db.version.Add(1)
	return Result{}, err
}
