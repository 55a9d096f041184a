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
// A SELECT does its per-statement work once per execution, never per row:
// each column reference resolves to its (table, column) slot on first use,
// each ORDER BY item is bound to the output column it reads or else to its
// own expression, and each aggregate call to its result slot. With ORDER BY
// and a LIMIT whose count and offset are literals or placeholders, and no
// DISTINCT, the executor keeps a bounded max-heap of the offset+count first
// candidates ordered by (sort keys, arrival), which returns exactly the rows
// a stable sort of all candidates sliced by the LIMIT would; the select
// list is evaluated only for the rows returned. Every matching row is still
// visited and counted in Stats.RowsScanned, so the simulated service time
// of SetRowCost does not depend on the LIMIT.
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
