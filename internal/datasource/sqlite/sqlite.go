// Package sqlite is the shared-file datasource driver registered under the
// "sqlite:<path>" scheme: a database several processes can open at once.
//
// It is a stand-in, not SQLite: this repository vendors no external
// dependencies, so the driver persists to an append-only statement log
// replayed into the embedded memdb engine. It implements the datasource
// contract (Conn, SchemaReporter, Bootstrapper, Closer) directly — there is
// no database/sql layer in between. A real backend would do the same:
// implement the datasource contract, register a scheme, and run
// internal/datasource/conformance.
//
// Storage model: every committed write statement is appended to the database
// file as one JSON line {"sql": ..., "args": [...]}, integers encoded as
// strings so 64-bit keys survive JSON. Each process keeps a memdb replica.
// A write takes an exclusive flock on the database file, which covers replay
// of the log suffix the replica has not applied yet + execute + append; that
// is what gives N cluster processes sharing one database file sequentially
// consistent writes and read-your-write visibility through the database, as
// the paper assumes of its shared MySQL server. A read first compares the
// file's size with what the replica has applied: only when the log grew
// does it replay the suffix, under a shared flock. The statement itself runs
// outside both the flock and the process lock, under memdb's own table
// locks.
package sqlite

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"autowebcache/internal/datasource"
	"autowebcache/internal/memdb"
)

func init() {
	datasource.Register("sqlite", func(rest string) (datasource.Conn, error) {
		if rest == "" {
			return nil, fmt.Errorf("sqlite: DSN needs a file path (sqlite:<path>)")
		}
		return openFileDB(rest)
	})
}

// fileDB is the connection: one per database file per process, shared by
// every Open of the same path.
type fileDB struct {
	// mu serialises replay and writes within the process; the flock on f
	// does the same across processes.
	mu   sync.Mutex
	path string
	f    *os.File
	// mem is the replica and applied the byte offset into the log already
	// replayed into it. Both change only under mu and a flock; reads of a
	// caught-up replica load them with neither held. applied advances only
	// after the statements it covers are in mem.
	mem     atomic.Pointer[memdb.DB]
	applied atomic.Int64
}

var (
	_ datasource.Conn           = (*fileDB)(nil)
	_ datasource.SchemaReporter = (*fileDB)(nil)
	_ datasource.Bootstrapper   = (*fileDB)(nil)
	_ datasource.Closer         = (*fileDB)(nil)

	filesMu sync.Mutex
	files   = map[string]*fileDB{}
)

// openFileDB returns the process-wide instance for a database file, creating
// the file on first open.
func openFileDB(path string) (*fileDB, error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		return nil, fmt.Errorf("sqlite: %w", err)
	}
	filesMu.Lock()
	defer filesMu.Unlock()
	if d, ok := files[abs]; ok {
		return d, nil
	}
	f, err := os.OpenFile(abs, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sqlite: %w", err)
	}
	d := &fileDB{path: abs, f: f}
	d.mem.Store(memdb.New())
	files[abs] = d
	return d, nil
}

// logRecord is one committed write statement.
type logRecord struct {
	SQL  string     `json:"sql"`
	Args []logValue `json:"args"`
}

// logValue serialises one canonical value. Integers are encoded as strings
// because JSON numbers round-trip through float64 and would corrupt 64-bit
// keys.
type logValue struct{ v datasource.Value }

func (lv logValue) MarshalJSON() ([]byte, error) {
	switch x := lv.v.(type) {
	case nil:
		return []byte("null"), nil
	case int64:
		return json.Marshal(map[string]string{"i": strconv.FormatInt(x, 10)})
	case float64:
		return json.Marshal(map[string]float64{"f": x})
	case string:
		return json.Marshal(map[string]string{"s": x})
	}
	return nil, fmt.Errorf("sqlite: cannot log value of type %T", lv.v)
}

func (lv *logValue) UnmarshalJSON(b []byte) error {
	if bytes.Equal(bytes.TrimSpace(b), []byte("null")) {
		lv.v = nil
		return nil
	}
	var aux struct {
		I *string  `json:"i"`
		F *float64 `json:"f"`
		S *string  `json:"s"`
	}
	if err := json.Unmarshal(b, &aux); err != nil {
		return err
	}
	switch {
	case aux.I != nil:
		n, err := strconv.ParseInt(*aux.I, 10, 64)
		if err != nil {
			return fmt.Errorf("sqlite: bad int in log: %w", err)
		}
		lv.v = n
	case aux.F != nil:
		lv.v = *aux.F
	case aux.S != nil:
		lv.v = *aux.S
	default:
		return fmt.Errorf("sqlite: empty value in log")
	}
	return nil
}

// replayLocked applies the log suffix past d.applied to the memdb replica.
// The caller holds d.mu and at least a shared flock on d.f.
func (d *fileDB) replayLocked(ctx context.Context) error {
	st, err := d.f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size < d.applied.Load() {
		// The file shrank: someone recreated the database. Rebuild from
		// scratch.
		d.mem.Store(memdb.New())
		d.applied.Store(0)
	}
	off := d.applied.Load()
	if size == off {
		return nil
	}
	buf := make([]byte, size-off)
	if _, err := d.f.ReadAt(buf, off); err != nil {
		return err
	}
	mem := d.mem.Load()
	for len(buf) > 0 {
		nl := bytes.IndexByte(buf, '\n')
		if nl < 0 {
			// Torn trailing line from a crashed writer; leave it for the
			// next exclusive-lock holder to overwrite.
			break
		}
		err := d.apply(ctx, mem, buf[:nl])
		buf = buf[nl+1:]
		// The line is consumed even when it fails, so a bad record is
		// reported once, not on every later statement.
		off += int64(nl) + 1
		d.applied.Store(off)
		if err != nil {
			return err
		}
	}
	return nil
}

// apply replays one log line into mem.
func (d *fileDB) apply(ctx context.Context, mem *memdb.DB, line []byte) error {
	if len(bytes.TrimSpace(line)) == 0 {
		return nil
	}
	var rec logRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return fmt.Errorf("sqlite: corrupt log %s: %w", d.path, err)
	}
	args := make([]any, len(rec.Args))
	for i := range rec.Args {
		args[i] = rec.Args[i].v
	}
	if _, err := mem.Exec(ctx, rec.SQL, args...); err != nil {
		return fmt.Errorf("sqlite: replaying %s: %w", d.path, err)
	}
	return nil
}

// replica returns the memdb replica, caught up with the log. A writer's
// append has finished, growing the file, before its Exec returns, so when
// the file's size equals what the replica has applied, every write that
// completed before this call is already in it: no lock is needed. Otherwise
// — the log grew, shrank, or ends in a torn line — the suffix is replayed
// under d.mu and a shared flock. The caller runs its statement on the
// returned replica outside both locks.
func (d *fileDB) replica(ctx context.Context) (*memdb.DB, error) {
	st, err := d.f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() == d.applied.Load() {
		return d.mem.Load(), nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := flockShared(d.f); err != nil {
		return nil, fmt.Errorf("sqlite: lock %s: %w", d.path, err)
	}
	defer funlock(d.f)
	if err := d.replayLocked(ctx); err != nil {
		return nil, err
	}
	return d.mem.Load(), nil
}

// Query runs a SELECT against the replica after catching up on the log.
func (d *fileDB) Query(ctx context.Context, sqlText string, args ...any) (*datasource.Rows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mem, err := d.replica(ctx)
	if err != nil {
		return nil, err
	}
	return mem.Query(ctx, sqlText, args...)
}

// Exec runs a write under the exclusive lock: catch up, execute, append.
func (d *fileDB) Exec(ctx context.Context, sqlText string, args ...any) (datasource.Result, error) {
	if err := ctx.Err(); err != nil {
		return datasource.Result{}, err
	}
	vals, err := datasource.NormalizeAll(args)
	if err != nil {
		return datasource.Result{}, fmt.Errorf("sqlite: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := flockExclusive(d.f); err != nil {
		return datasource.Result{}, fmt.Errorf("sqlite: lock %s: %w", d.path, err)
	}
	defer funlock(d.f)
	if err := d.replayLocked(ctx); err != nil {
		return datasource.Result{}, err
	}
	res, err := d.mem.Load().Exec(ctx, sqlText, vals...)
	if err != nil {
		// Failed statements are not logged: replicas replay only committed
		// writes.
		return res, err
	}
	wrapped := make([]logValue, len(vals))
	for i, v := range vals {
		wrapped[i] = logValue{v}
	}
	line, err := json.Marshal(logRecord{SQL: sqlText, Args: wrapped})
	if err != nil {
		return res, fmt.Errorf("sqlite: logging %s: %w", d.path, err)
	}
	line = append(line, '\n')
	if _, err := d.f.WriteAt(line, d.applied.Load()); err != nil {
		return res, fmt.Errorf("sqlite: appending to %s: %w", d.path, err)
	}
	d.applied.Add(int64(len(line)))
	return res, nil
}

// ColumnNames reports the replica's schema after catching up, so DDL applied
// by another process is visible.
func (d *fileDB) ColumnNames(table string) ([]string, error) {
	mem, err := d.replica(context.Background())
	if err != nil {
		return nil, err
	}
	return mem.ColumnNames(table)
}

// AutoIncrementColumn reports a table's auto-increment column, likewise
// after catching up; ok=false when the lock or the replay fails (the
// analysis then takes its conservative path).
func (d *fileDB) AutoIncrementColumn(table string) (string, bool) {
	mem, err := d.replica(context.Background())
	if err != nil {
		return "", false
	}
	return mem.AutoIncrementColumn(table)
}

// Bootstrap runs fn under the cross-process bootstrap lock: an exclusive
// flock on a sibling ".lock" file. A separate file is essential — holding
// the database-file lock across fn would deadlock fn's own statements, which
// take it per-statement.
func (d *fileDB) Bootstrap(ctx context.Context, fn func(datasource.Conn) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	lf, err := os.OpenFile(d.path+".lock", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("sqlite: %w", err)
	}
	defer lf.Close()
	if err := flockExclusive(lf); err != nil {
		return fmt.Errorf("sqlite: bootstrap lock %s: %w", d.path, err)
	}
	defer funlock(lf)
	return fn(d)
}

// Close is a no-op: the instance is the process-wide singleton for its path,
// shared with every other Open of it, and lives as long as the process.
func (d *fileDB) Close() error { return nil }
