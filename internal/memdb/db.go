package memdb

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autowebcache/internal/datasource"
	"autowebcache/internal/sqlparser"
)

// Rows, Result and Conn are the backend-neutral datasource shapes; memdb
// aliases them so the engine is one driver behind the shared contract and
// existing memdb callers keep compiling.
type (
	// Rows is the result of a SELECT: column names and row data.
	Rows = datasource.Rows
	// Result reports the effect of an INSERT, UPDATE or DELETE.
	Result = datasource.Result
	// Conn is the query interface the application uses.
	Conn = datasource.Conn
)

// Stats are cumulative engine counters.
type Stats struct {
	Queries     uint64 // SELECT statements executed
	Execs       uint64 // write statements executed
	RowsScanned uint64 // rows visited by scans and index probes
}

// DB is an in-memory SQL database. The zero value is not usable; create one
// with New.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
	// version counts schema changes (CREATE TABLE, CREATE INDEX); a plan is
	// compiled for one version and recompiled once it moves.
	version atomic.Uint64

	// stmts caches each statement by its SQL text: its parse and its plan.
	stmtMu     sync.RWMutex
	stmts      map[string]*stmt
	stmtHits   atomic.Uint64
	stmtMisses atomic.Uint64

	// bootMu serialises Bootstrap callbacks on a shared instance.
	bootMu sync.Mutex

	queries     atomic.Uint64
	execs       atomic.Uint64
	rowsScanned atomic.Uint64

	// readLatency/writeLatency simulate the per-statement base service time
	// of a separate database server (the paper's MySQL box on a 1 Gbps
	// LAN); rowCost adds a per-row-visited component so scans cost more
	// than index probes.
	readLatency  atomic.Int64 // nanoseconds
	writeLatency atomic.Int64
	rowCost      atomic.Int64 // nanoseconds per row visited
}

// New creates an empty database.
func New() *DB {
	return &DB{tables: make(map[string]*table)}
}

var _ Conn = (*DB)(nil)

// CreateTable registers a table. It fails if the name is already taken or
// the spec is invalid.
func (db *DB) CreateTable(spec TableSpec) error {
	t, err := newTable(spec)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[spec.Name]; exists {
		return fmt.Errorf("memdb: table %s already exists", spec.Name)
	}
	db.tables[spec.Name] = t
	db.version.Add(1)
	return nil
}

// MustCreateTable is CreateTable that panics on error; intended for
// statically-known schemas in data generators and tests.
func (db *DB) MustCreateTable(spec TableSpec) {
	if err := db.CreateTable(spec); err != nil {
		panic(err)
	}
}

// TableNames returns the names of all tables, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TableLen returns the number of live rows in a table, or -1 if the table
// does not exist.
func (db *DB) TableLen(name string) int {
	db.mu.RLock()
	t := db.tables[name]
	db.mu.RUnlock()
	if t == nil {
		return -1
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// HasTable reports whether a table exists.
func (db *DB) HasTable(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.tables[name]
	return ok
}

// AutoIncrementColumn returns the name of a table's auto-increment column.
// ok is false when the table does not exist or has none.
func (db *DB) AutoIncrementColumn(name string) (string, bool) {
	db.mu.RLock()
	t := db.tables[name]
	db.mu.RUnlock()
	if t == nil || t.autoCol < 0 {
		return "", false
	}
	return t.spec.Columns[t.autoCol].Name, true
}

// ColumnNames returns the column names of a table in declaration order.
func (db *DB) ColumnNames(name string) ([]string, error) {
	db.mu.RLock()
	t := db.tables[name]
	db.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("memdb: no such table %s", name)
	}
	cols := make([]string, len(t.spec.Columns))
	for i, c := range t.spec.Columns {
		cols[i] = c.Name
	}
	return cols, nil
}

// SetLatency configures a simulated per-statement service time, modelling
// the work a separate database server would spend on each query (network
// round trip, parsing, disk). Zero (the default) disables it.
//
// The delay is implemented as a busy-wait rather than a sleep: service time
// occupies a processor, so offered load beyond capacity queues — the
// behaviour that makes response time rise with client count in the paper's
// Figs. 13–15. (Timer-based sleeps overshoot by milliseconds under hundreds
// of concurrent waiters, drowning the effect being measured.)
func (db *DB) SetLatency(read, write time.Duration) {
	db.readLatency.Store(int64(read))
	db.writeLatency.Store(int64(write))
	if read > 0 || write > 0 {
		// Calibrate now, while the system is quiet; lazy calibration under
		// load would overestimate the loop's cost.
		spinOnce.Do(calibrateSpin)
	}
}

// SetRowCost configures the additional simulated service time per row the
// executor visits, making scans proportionally more expensive than index
// probes (as on a real database server). Zero disables it.
func (db *DB) SetRowCost(perRow time.Duration) {
	db.rowCost.Store(int64(perRow))
	if perRow > 0 {
		spinOnce.Do(calibrateSpin)
	}
}

// Stats returns a snapshot of cumulative engine counters.
func (db *DB) Stats() Stats {
	return Stats{
		Queries:     db.queries.Load(),
		Execs:       db.execs.Load(),
		RowsScanned: db.rowsScanned.Load(),
	}
}

func (db *DB) lookupTable(name string) (*table, error) {
	db.mu.RLock()
	t := db.tables[name]
	db.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("memdb: no such table %s", name)
	}
	return t, nil
}

// Query executes a SELECT statement.
func (db *DB) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := db.statement(sql)
	if err != nil {
		return nil, err
	}
	if _, ok := s.parsed.(*sqlparser.SelectStmt); !ok {
		return nil, fmt.Errorf("memdb: Query requires SELECT, got %T", s.parsed)
	}
	vals, err := NormalizeAll(args)
	if err != nil {
		return nil, err
	}
	db.queries.Add(1)
	var rows *Rows
	var scanned int
	pl, execErr := db.planFor(s)
	if execErr == nil {
		rows, scanned, execErr = db.execSelect(pl, vals)
	}
	if d := db.readLatency.Load() + db.rowCost.Load()*int64(scanned); d > 0 {
		spinFor(time.Duration(d))
	}
	return rows, execErr
}

// Exec executes an INSERT, UPDATE or DELETE statement, or a CREATE TABLE /
// CREATE INDEX bootstrap statement.
func (db *DB) Exec(ctx context.Context, sql string, args ...any) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	s, err := db.statement(sql)
	if err != nil {
		return Result{}, err
	}
	vals, err := NormalizeAll(args)
	if err != nil {
		return Result{}, err
	}
	db.execs.Add(1)
	var res Result
	var execErr error
	switch x := s.parsed.(type) {
	case *sqlparser.InsertStmt:
		res, execErr = db.execInsert(x, vals)
	case *sqlparser.UpdateStmt:
		res, execErr = db.execUpdate(s, x, vals)
	case *sqlparser.DeleteStmt:
		res, execErr = db.execDelete(s, vals)
	case *sqlparser.CreateTableStmt:
		return db.execCreateTable(x)
	case *sqlparser.CreateIndexStmt:
		return db.execCreateIndex(x)
	default:
		return Result{}, fmt.Errorf("memdb: Exec requires INSERT/UPDATE/DELETE, got %T", s.parsed)
	}
	if d := db.writeLatency.Load() + db.rowCost.Load()*res.RowsAffected; d > 0 {
		spinFor(time.Duration(d))
	}
	return res, execErr
}

// spinSink defeats dead-code elimination of the calibration and spin loops.
var spinSink atomic.Uint64

// spinItersPerUS is the calibrated number of spin-loop iterations per
// microsecond of CPU time.
var (
	spinOnce       sync.Once
	spinItersPerUS uint64
)

// spinWork runs n iterations of the calibrated busy loop, yielding
// periodically so other goroutines are not starved on small GOMAXPROCS.
func spinWork(n uint64) {
	var x uint64 = 0x9e3779b97f4a7c15
	for i := uint64(0); i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if i&0xfff == 0xfff {
			runtime.Gosched()
		}
	}
	spinSink.Add(x)
}

// rawSpin is the calibration loop: identical work to spinWork but without
// yields, so the measurement reflects pure loop cost.
func rawSpin(n uint64) {
	var x uint64 = 0x9e3779b97f4a7c15
	for i := uint64(0); i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Add(x)
}

func calibrateSpin() {
	const probe = 1 << 18
	best := time.Duration(1 << 62)
	for trial := 0; trial < 5; trial++ {
		start := time.Now()
		rawSpin(probe)
		if d := time.Since(start); d < best && d > 0 {
			best = d
		}
	}
	iters := uint64(float64(probe) * float64(time.Microsecond) / float64(best))
	if iters == 0 {
		iters = 1
	}
	spinItersPerUS = iters
}

// spinFor consumes approximately d of CPU time, modelling query service
// time. Unlike a sleep (which overshoots by milliseconds under load) or a
// wall-clock spin (which completes "for free" while descheduled), burning a
// calibrated iteration count makes concurrent queries genuinely queue for
// the processor.
func spinFor(d time.Duration) {
	spinOnce.Do(calibrateSpin)
	us := d.Microseconds()
	if us <= 0 {
		us = 1
	}
	spinWork(uint64(us) * spinItersPerUS)
}

// ParseCacheStats reports the statement cache: the number of distinct
// statements parsed, and how many lookups found or missed one.
func (db *DB) ParseCacheStats() (templates int, hits, misses uint64) {
	db.stmtMu.RLock()
	defer db.stmtMu.RUnlock()
	return len(db.stmts), db.stmtHits.Load(), db.stmtMisses.Load()
}
