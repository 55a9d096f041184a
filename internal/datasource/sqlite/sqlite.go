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
// file as one codec frame ([length][CRC-32C][payload]) whose payload is the
// SQL text, then the argument values, in the binary encoding of package
// codec. Each process keeps a memdb replica.
// A write takes an exclusive flock on the database file, which covers replay
// of the log suffix the replica has not applied yet + execute + append; that
// is what gives N cluster processes sharing one database file sequentially
// consistent writes and read-your-write visibility through the database, as
// the paper assumes of its shared MySQL server. A read first compares the
// file's size with what the replica has applied: only when the log grew
// does it replay the suffix, under a shared flock. The statement itself runs
// outside both the flock and the process lock, under memdb's own table
// locks.
//
// A frame cut off by the end of the file, or one failing its checksum that
// ends exactly there, is the torn tail of a crashed writer: it is not
// applied, and the next writer truncates it and writes over it. Any other
// bad frame is corruption and is reported; so is a file in the JSON-lines
// format of earlier versions, which is refused and left as it is.
package sqlite

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"autowebcache/internal/codec"
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

// appendStatement appends the log frame of one committed statement.
func appendStatement(b []byte, sqlText string, args []datasource.Value) []byte {
	return codec.AppendFrame(b, codec.AppendValues(codec.AppendString(nil, sqlText), args))
}

// decodeStatement decodes the payload of one log frame.
func decodeStatement(payload []byte) (string, []datasource.Value, error) {
	d := codec.NewDecoder(payload)
	sqlText, args := d.Str(), d.Values()
	return sqlText, args, d.Finish()
}

// replayLocked applies the log suffix past d.applied to the memdb replica
// and reports whether the log ends in a torn frame. The caller holds d.mu
// and at least a shared flock on d.f.
func (d *fileDB) replayLocked(ctx context.Context) (torn bool, err error) {
	st, err := d.f.Stat()
	if err != nil {
		return false, err
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
		return false, nil
	}
	buf := make([]byte, size-off)
	if _, err := d.f.ReadAt(buf, off); err != nil {
		return false, err
	}
	// No frame starts with '{': its length would exceed codec.MaxFrame.
	if off == 0 && buf[0] == '{' {
		return false, fmt.Errorf("sqlite: %s holds a JSON-lines statement log of an earlier version; recreate the database", d.path)
	}
	r := bytes.NewReader(buf)
	mem := d.mem.Load()
	var payload []byte
	for {
		payload, err = codec.ReadFrame(r, payload)
		switch {
		case err == io.EOF:
			return false, nil
		case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, codec.ErrChecksum) && r.Len() == 0:
			// A crashed writer's torn frame; the next exclusive-lock holder
			// overwrites it.
			return true, nil
		case err != nil:
			return false, fmt.Errorf("sqlite: corrupt log %s at byte %d: %w", d.path, off, err)
		}
		err = d.apply(ctx, mem, payload)
		// The frame is consumed even when it fails, so a bad record is
		// reported once, not on every later statement.
		off += int64(codec.FrameOverhead + len(payload))
		d.applied.Store(off)
		if err != nil {
			return false, err
		}
	}
}

// apply replays one logged statement into mem.
func (d *fileDB) apply(ctx context.Context, mem *memdb.DB, payload []byte) error {
	sqlText, args, err := decodeStatement(payload)
	if err != nil {
		return fmt.Errorf("sqlite: corrupt log %s: %w", d.path, err)
	}
	if _, err := mem.Exec(ctx, sqlText, args...); err != nil {
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
	if _, err := d.replayLocked(ctx); err != nil {
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
	torn, err := d.replayLocked(ctx)
	if err != nil {
		return datasource.Result{}, err
	}
	res, err := d.mem.Load().Exec(ctx, sqlText, vals...)
	if err != nil {
		// Failed statements are not logged: replicas replay only committed
		// writes.
		return res, err
	}
	end := d.applied.Load()
	if torn {
		// Cut the torn frame off first: bytes of it left past a shorter
		// frame would read as a corrupt frame in mid-log.
		if err := d.f.Truncate(end); err != nil {
			return res, fmt.Errorf("sqlite: truncating the torn tail of %s: %w", d.path, err)
		}
	}
	frame := appendStatement(nil, sqlText, vals)
	if _, err := d.f.WriteAt(frame, end); err != nil {
		return res, fmt.Errorf("sqlite: appending to %s: %w", d.path, err)
	}
	d.applied.Add(int64(len(frame)))
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
