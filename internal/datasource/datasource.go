// Package datasource defines the backend-neutral database contract the
// AutoWebCache layers are built on: a Conn that executes SQL, the Rows /
// Result shapes it returns, and the canonical Value representation every
// driver must normalise to.
//
// The caching layers above (weave's RecordingConn, the analysis engine)
// depend on exact semantics, not just an interface:
//
//   - values are normalised to int64 / float64 / string / nil, so template
//     argument vectors and probe keys compare identically across drivers;
//   - result rows are owned by the caller and never alias driver storage, so
//     a handler may mutate what a query returned without corrupting the
//     database or a later query's result;
//   - Result reports exact affected-row counts and the auto-increment key
//     of single-row INSERTs, which the analysis engine feeds back into
//     invalidation.
//
// Two drivers ship with the repository: memdb (the embedded in-memory
// engine) and sqlite (a file several processes share). Each implements this
// contract directly and is checked by the conformance package; a further
// backend would do the same. Register/Open connect a DSN of the form "memdb"
// or "scheme:rest" to the right driver.
package datasource

import "context"

// Rows is the result of a SELECT: column names and row data. The data is
// owned by the caller; it never aliases driver storage.
type Rows struct {
	Columns []string
	Data    [][]Value
}

// Len returns the number of rows.
func (r *Rows) Len() int { return len(r.Data) }

// Int returns the value at (row, col) as int64 (0 when NULL or non-numeric).
func (r *Rows) Int(row, col int) int64 {
	f, ok := ToFloat(r.Data[row][col])
	if !ok {
		return 0
	}
	return int64(f)
}

// Float returns the value at (row, col) as float64.
func (r *Rows) Float(row, col int) float64 {
	f, _ := ToFloat(r.Data[row][col])
	return f
}

// Str returns the value at (row, col) rendered as a string ("" when NULL).
func (r *Rows) Str(row, col int) string {
	switch v := r.Data[row][col].(type) {
	case nil:
		return ""
	case string:
		return v
	default:
		return stringify(v)
	}
}

// Result reports the effect of an INSERT, UPDATE or DELETE.
type Result struct {
	RowsAffected int64
	// LastInsertID is the auto-increment value assigned by the most recent
	// INSERT, or 0 when the table has no auto-increment column.
	LastInsertID int64
}

// Conn is the query interface the application uses — the reproduction's
// analogue of the JDBC connection. The weave package interposes on this
// interface to collect consistency information, exactly as the paper's
// aspects capture executeQuery/executeUpdate calls (Fig. 12).
type Conn interface {
	// Query executes a read-only (SELECT) statement.
	Query(ctx context.Context, sql string, args ...any) (*Rows, error)
	// Exec executes a write (INSERT/UPDATE/DELETE, or DDL) statement.
	Exec(ctx context.Context, sql string, args ...any) (Result, error)
}

// SchemaReporter is the optional capability the analysis engine uses to
// disambiguate unqualified columns and recognise auto-increment keys.
// Drivers that cannot report their schema simply force the analysis to its
// conservative path (never under-invalidation, only broader invalidation).
type SchemaReporter interface {
	// ColumnNames returns the columns of a table in declaration order, or
	// an error when the table is unknown.
	ColumnNames(table string) ([]string, error)
	// AutoIncrementColumn returns the table's auto-increment column name,
	// or ok=false when it has none (or the table is unknown).
	AutoIncrementColumn(table string) (string, bool)
}

// Bootstrapper is the optional capability for atomic schema bootstrap and
// seeding. Bootstrap runs fn under a lock that excludes other bootstrappers
// of the same database — across processes for shared-file drivers — so N
// cluster nodes racing to seed one database run the seeding exactly once
// (fn itself must be idempotent: it may observe an already-seeded store).
type Bootstrapper interface {
	Bootstrap(ctx context.Context, fn func(Conn) error) error
}

// Closer is the optional capability of drivers holding OS resources.
type Closer interface {
	Close() error
}
