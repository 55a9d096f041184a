// Package memdb implements an embedded, in-memory SQL database engine used
// as one backend driver of the AutoWebCache reproduction (see package
// datasource for the backend-neutral contract it implements). It executes
// the dialect accepted by package sqlparser: SELECT with joins, WHERE,
// GROUP BY, aggregates, ORDER BY and LIMIT, plus INSERT, UPDATE and DELETE,
// and the CREATE TABLE / CREATE INDEX bootstrap subset.
//
// Concurrency follows the MyISAM model the paper's MySQL 3.23 deployment
// used: each table is guarded by a single readers-writer lock, so writers
// block all concurrent access to the table they touch. This coarse locking
// is deliberate — it reproduces the contention profile that makes dynamic
// page generation expensive under load and caching effective.
//
// A SELECT does its per-statement work when its plan is compiled, never per
// row: each column reference of its conjuncts, output columns and ORDER BY
// keys is bound to its (table, column) slot, each ORDER BY item to the
// output column it reads or else to its own bound expression, and each
// aggregate call to its result slot. A reference naming no column of the
// statement's tables is left unbound and fails when it is evaluated.
//
// The join is a nested loop that streams each complete joined row straight
// into the projection; nothing is materialised per row except what the
// projection keeps, and that lives in scratch the statement's plan
// recycles: each plan keeps a sync.Pool of finished runs, and a run keeps
// its env rows, top-k heap and slabs, full-sort candidate slabs, grouping
// map, group rows and accumulators, IN-probe unions and subquery value
// lists for the next execution, cleared of every table row and value in
// between. A result is written once, into one exact-size value slab cut
// into capped rows, so it shares nothing with the plan or the scratch and
// appending to one row never reaches the next. An uncorrelated
// IN-subquery with one column and no LIMIT or grouping streams that column
// into the outer run's value list instead of building a result, and an
// aggregate of a bare column reads the bound slot directly. A join level reads its table through a hash index when
// one of its conjuncts is `col = v` or `col IN (…)` (a value list or an
// uncorrelated subquery) on an indexed column, and only when the index
// answers exactly: the bucket must hold precisely the rows datasource.Equal
// matches, so an INT column takes integers (and integral numbers below
// 2^53), a TEXT column takes strings, and a FLOAT column takes numbers; any
// other pairing scans the table instead. The conjunct a probe answered is
// not evaluated again. An IN probe visits the union of its buckets in
// ascending row id, the order a scan visits. UPDATE and DELETE locate their
// rows by the same rule.
//
// An ordered index, CREATE INDEX … (k, o) with o an INT or TEXT column,
// keeps each k bucket sorted by (o under datasource.Compare, row id) through
// every INSERT, UPDATE and DELETE, so an equality probe on k yields its rows
// in that order.
//
// With ORDER BY and a LIMIT whose count and offset are literals or
// placeholders, and no DISTINCT, the executor keeps a max-heap of the
// offset+count first candidates ordered by (sort keys, arrival), which
// returns exactly the rows a stable sort of all candidates sliced by the
// LIMIT would; it copies a joined row only when the heap keeps it, and the
// select list is evaluated only for the rows returned. Arrival is a
// candidate's position among its first table's candidates: a probe's
// bucket order, or row id for a scan or an IN probe. When the statement is
// not grouped and its first ORDER BY item is DESC, the first table's
// candidates are visited last to first, so rows stored oldest first arrive
// newest first and rarely displace a kept row.
//
// Every matching row is visited and counted in Stats.RowsScanned, which
// the simulated service time of SetRowCost charges, with two exceptions.
// When that non-grouped top-k probes the first table by equality on an
// ordered index whose order column is its first ORDER BY item, the bucket
// is walked best first and the walk ends at the first row whose order value
// is strictly worse than the worst kept row's once offset+count rows are
// kept. The rows past it are not visited or counted, so such a page costs
// about offset+count first-table rows however many rows match. And a
// one-table SELECT COUNT(*) whose only conjunct is an equality its index
// answers exactly — no grouping, HAVING, DISTINCT, ORDER BY or LIMIT — is
// answered from the bucket's length, visiting no row.
package memdb

import "autowebcache/internal/datasource"

// Value is a database value: int64, float64, string or nil (SQL NULL).
// It is the canonical datasource representation; the helpers below forward
// to the datasource package so existing memdb callers keep compiling.
type Value = datasource.Value

// Normalize converts convenient Go values (int, int32, uint, bool, float32…)
// to the canonical Value representation.
func Normalize(v any) (Value, error) { return datasource.Normalize(v) }

// NormalizeAll normalises a slice of arguments.
func NormalizeAll(args []any) ([]Value, error) { return datasource.NormalizeAll(args) }

// Compare orders two values with datasource semantics.
func Compare(a, b Value) int { return datasource.Compare(a, b) }

// Equal reports whether two values are equal (NULL equals nothing).
func Equal(a, b Value) bool { return datasource.Equal(a, b) }

// KeyString renders a value as a map key.
func KeyString(v Value) string { return datasource.KeyString(v) }

// KeyOfValues renders a composite key for a value tuple.
func KeyOfValues(vs []Value) string { return datasource.KeyOfValues(vs) }

// IsTruthy reports whether a value counts as true in a WHERE context.
func IsTruthy(v Value) bool { return datasource.IsTruthy(v) }

// ToFloat converts a numeric value to float64.
func ToFloat(v Value) (f float64, ok bool) { return datasource.ToFloat(v) }
