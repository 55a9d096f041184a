//go:build unix

package sqlite_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"autowebcache/internal/codec"
	"autowebcache/internal/datasource"

	_ "autowebcache/internal/datasource/sqlite" // register "sqlite"
)

// These tests pin the shared-file behaviour the cluster deployments rely on,
// with several replicas of ONE file inside ONE process. The driver keeps a
// process-wide singleton per absolute path, so each extra replica is opened
// through its own symlink to the database directory: a different path
// spelling, hence a distinct instance with its own descriptor — and flock
// excludes between descriptors exactly as it does between processes.

var ctx = context.Background()

// replicas opens n independent replicas of one fresh database file and
// returns them with the file's real path.
func replicas(t *testing.T, n int) ([]datasource.Conn, string) {
	t.Helper()
	root := t.TempDir()
	real := filepath.Join(root, "real")
	if err := os.Mkdir(real, 0o755); err != nil {
		t.Fatal(err)
	}
	conns := make([]datasource.Conn, n)
	for i := range conns {
		dir := real
		if i > 0 {
			dir = filepath.Join(root, fmt.Sprintf("link%d", i))
			if err := os.Symlink(real, dir); err != nil {
				t.Fatal(err)
			}
		}
		c, err := datasource.Open("sqlite:" + filepath.Join(dir, "shared.db"))
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	return conns, filepath.Join(real, "shared.db")
}

func mustExec(t *testing.T, c datasource.Conn, sql string, args ...any) {
	t.Helper()
	if _, err := c.Exec(ctx, sql, args...); err != nil {
		t.Fatalf("Exec %q: %v", sql, err)
	}
}

// count returns SELECT COUNT(*) FROM t as seen by c.
func count(t *testing.T, c datasource.Conn) int64 {
	t.Helper()
	rows, err := c.Query(ctx, "SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	return rows.Int(0, 0)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestReadYourWriteAcrossReplicas(t *testing.T) {
	cs, _ := replicas(t, 2)
	a, b := cs[0], cs[1]
	mustExec(t, a, "CREATE TABLE t (id INTEGER PRIMARY KEY AUTO_INCREMENT, v TEXT)")
	// DDL applied through one replica is visible through the other's schema
	// report, not only through its queries.
	cols, err := b.(datasource.SchemaReporter).ColumnNames("t")
	if err != nil || len(cols) != 2 || cols[0] != "id" || cols[1] != "v" {
		t.Fatalf("ColumnNames via the other replica = %v, %v", cols, err)
	}
	if ai, ok := b.(datasource.SchemaReporter).AutoIncrementColumn("t"); !ok || ai != "id" {
		t.Fatalf("AutoIncrementColumn via the other replica = %q, %v", ai, ok)
	}
	mustExec(t, a, "INSERT INTO t (v) VALUES (?)", "from-a")
	mustExec(t, b, "INSERT INTO t (v) VALUES (?)", "from-b")
	for name, c := range map[string]datasource.Conn{"a": a, "b": b} {
		rows, err := c.Query(ctx, "SELECT id, v FROM t ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		if rows.Len() != 2 || rows.Str(0, 1) != "from-a" || rows.Str(1, 1) != "from-b" ||
			rows.Int(0, 0) != 1 || rows.Int(1, 0) != 2 {
			t.Fatalf("replica %s sees %v", name, rows.Data)
		}
	}
}

// statementFrame is the log frame of one statement without arguments.
func statementFrame(sql string) []byte {
	return codec.AppendFrame(nil, codec.AppendValues(codec.AppendString(nil, sql), nil))
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// A crashed writer's frame, whether cut off mid-payload or whole but
// failing its checksum at the end of the file, is a torn tail: replicas
// skip it, and the next write replaces it — even with a shorter frame.
func TestTornTailSkippedThenOverwritten(t *testing.T) {
	torn := statementFrame("INSERT INTO t (id, v) VALUES (3, 'a torn statement, longer than the write that replaces it')")
	badSum := append([]byte(nil), torn...)
	badSum[len(badSum)-2] ^= 0x20
	for name, tail := range map[string][]byte{
		"cut mid-payload":       torn[:len(torn)-9],
		"checksum fails at EOF": badSum,
		"cut inside the header": torn[:5],
	} {
		t.Run(name, func(t *testing.T) {
			cs, path := replicas(t, 3)
			a, b, late := cs[0], cs[1], cs[2]
			mustExec(t, a, "CREATE TABLE t (id INTEGER, v TEXT)")
			mustExec(t, a, "INSERT INTO t (id, v) VALUES (1, 'kept')")
			clean := fileSize(t, path)
			appendBytes(t, path, tail)
			if n := count(t, b); n != 1 {
				t.Fatalf("reader past a torn tail sees %d rows, want 1", n)
			}
			// The next writer replaces the torn bytes with its own frame.
			mustExec(t, b, "INSERT INTO t (id, v) VALUES (2, 'after')")
			if got, want := fileSize(t, path), clean+int64(len(statementFrame("INSERT INTO t (id, v) VALUES (2, 'after')"))); got != want {
				t.Fatalf("log is %d bytes after the overwrite, want %d", got, want)
			}
			for name, c := range map[string]datasource.Conn{"a": a, "b": b} {
				if n := count(t, c); n != 2 {
					t.Fatalf("replica %s sees %d rows after the overwrite, want 2", name, n)
				}
			}
			// A replica that has applied nothing replays the whole file cleanly.
			if n := count(t, late); n != 2 {
				t.Fatalf("fresh replay sees %d rows, want 2", n)
			}
		})
	}
}

// A frame failing its checksum before the end of the log is not a torn
// tail: replicas report corruption instead of skipping it.
func TestChecksumFailureMidLogIsCorruption(t *testing.T) {
	cs, path := replicas(t, 2)
	a, b := cs[0], cs[1]
	mustExec(t, a, "CREATE TABLE t (id INTEGER)")
	bad := statementFrame("INSERT INTO t (id) VALUES (1)")
	bad[len(bad)-1] ^= 0x01
	appendBytes(t, path, append(bad, statementFrame("INSERT INTO t (id) VALUES (2)")...))
	if _, err := b.Query(ctx, "SELECT COUNT(*) FROM t"); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("query over a mid-log checksum failure: %v, want a corruption error", err)
	}
}

// A log written in the JSON-lines format of earlier versions is refused
// with an error naming the format, and neither reads nor writes change it.
func TestJSONLinesLogRefused(t *testing.T) {
	cs, path := replicas(t, 1)
	c := cs[0]
	old := []byte(`{"sql":"CREATE TABLE t (id INTEGER)","args":[]}` + "\n" +
		`{"sql":"INSERT INTO t (id) VALUES (?)","args":[{"i":"1"}]}` + "\n")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "SELECT COUNT(*) FROM t"); err == nil || !strings.Contains(err.Error(), "JSON-lines") {
		t.Fatalf("query over a JSON-lines log: %v, want an error naming the format", err)
	}
	if _, err := c.Exec(ctx, "INSERT INTO t (id) VALUES (2)"); err == nil || !strings.Contains(err.Error(), "JSON-lines") {
		t.Fatalf("write to a JSON-lines log: %v, want an error naming the format", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("the JSON-lines log changed: %q, %v", got, err)
	}
}

func TestTruncatedFileRebuildsReplica(t *testing.T) {
	cs, path := replicas(t, 2)
	a, b := cs[0], cs[1]
	mustExec(t, a, "CREATE TABLE t (id INTEGER, v TEXT)")
	mustExec(t, a, "INSERT INTO t (id, v) VALUES (1, 'x'), (2, 'y')")
	if n := count(t, b); n != 2 {
		t.Fatalf("before truncation: %d rows", n)
	}
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	// The database was recreated empty: the replica must forget what it had
	// applied, table included.
	if _, err := b.Query(ctx, "SELECT COUNT(*) FROM t"); err == nil {
		t.Fatal("replica still answers from a table the truncated file no longer defines")
	}
	mustExec(t, a, "CREATE TABLE t (id INTEGER, v TEXT)")
	mustExec(t, a, "INSERT INTO t (id, v) VALUES (9, 'z')")
	if n := count(t, b); n != 1 {
		t.Fatalf("after rebuild: %d rows, want 1", n)
	}
}

func TestFailedStatementAppendsNothing(t *testing.T) {
	cs, path := replicas(t, 2)
	a, b := cs[0], cs[1]
	mustExec(t, a, "CREATE TABLE t (id INTEGER, v TEXT)")
	before := fileSize(t, path)
	if _, err := a.Exec(ctx, "INSERT INTO t (id, v) VALUES (?, ?)", 1); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if _, err := a.Exec(ctx, "INSERT INTO missing (id) VALUES (1)"); err == nil {
		t.Fatal("insert into a missing table accepted")
	}
	if _, err := a.Exec(ctx, "INSERT INTO t (id, v) VALUES (?, ?)", 1, struct{}{}); err == nil {
		t.Fatal("unsupported argument type accepted")
	}
	if after := fileSize(t, path); after != before {
		t.Fatalf("failed statements grew the log from %d to %d bytes", before, after)
	}
	if n := count(t, b); n != 0 {
		t.Fatalf("other replica sees %d rows from failed statements", n)
	}
}

func TestBootstrapRaceSeedsOnce(t *testing.T) {
	cs, _ := replicas(t, 2)
	const perReplica = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(cs)*perReplica)
	for _, c := range cs {
		b := c.(datasource.Bootstrapper)
		for i := 0; i < perReplica; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs <- b.Bootstrap(ctx, func(conn datasource.Conn) error {
					if _, err := conn.Exec(ctx, "CREATE TABLE IF NOT EXISTS t (n INTEGER)"); err != nil {
						return err
					}
					rows, err := conn.Query(ctx, "SELECT COUNT(*) FROM t")
					if err != nil {
						return err
					}
					if rows.Int(0, 0) == 0 {
						_, err = conn.Exec(ctx, "INSERT INTO t (n) VALUES (1)")
					}
					return err
				})
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("Bootstrap: %v", err)
		}
	}
	for i, c := range cs {
		if n := count(t, c); n != 1 {
			t.Fatalf("replica %d: seeded %d times, want exactly once", i, n)
		}
	}
}

// TestCaughtUpQueryTakesNoLock: a replica that has applied the whole log
// answers without taking the file lock, while one behind the log waits for
// the lock, replays, and sees the write.
func TestCaughtUpQueryTakesNoLock(t *testing.T) {
	cs, path := replicas(t, 2)
	a, b := cs[0], cs[1]
	mustExec(t, a, "CREATE TABLE t (id INTEGER)")
	mustExec(t, a, "INSERT INTO t (id) VALUES (1)")
	if n := count(t, b); n != 1 {
		t.Fatalf("b sees %d rows, want 1", n)
	}
	// A writer in another process, as far as flock can tell.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	flock := func(how int) {
		t.Helper()
		if err := syscall.Flock(int(f.Fd()), how); err != nil {
			t.Fatal(err)
		}
	}
	query := func() <-chan int64 {
		done := make(chan int64, 1)
		go func() {
			rows, err := b.Query(ctx, "SELECT COUNT(*) FROM t")
			if err != nil {
				t.Error(err)
				done <- -1
				return
			}
			done <- rows.Int(0, 0)
		}()
		return done
	}

	flock(syscall.LOCK_EX)
	select {
	case n := <-query():
		if n != 1 {
			t.Fatalf("caught-up replica sees %d rows, want 1", n)
		}
	case <-time.After(10 * time.Second): // hang guard only
		t.Fatal("a query on a caught-up replica blocked on the file lock")
	}
	flock(syscall.LOCK_UN)

	mustExec(t, a, "INSERT INTO t (id) VALUES (2)")
	flock(syscall.LOCK_EX)
	done := query()
	// Only a wrong answer can come early; a correct one must wait for the
	// lock, so this short look can miss a bug but never fail a fix.
	select {
	case n := <-done:
		t.Fatalf("a replica behind the log answered (%d rows) while the file was locked", n)
	case <-time.After(50 * time.Millisecond):
	}
	flock(syscall.LOCK_UN)
	select {
	case n := <-done:
		if n != 2 {
			t.Fatalf("after the lock was released b sees %d rows, want 2", n)
		}
	case <-time.After(10 * time.Second): // hang guard only
		t.Fatal("the query never acquired the released lock")
	}
}

// TestConcurrentReadsDuringWrites drives lock-free reads and locked replays
// of one replica from several goroutines while both replicas write. Each
// reader's counts never go backwards, and every replica ends with every row.
func TestConcurrentReadsDuringWrites(t *testing.T) {
	cs, _ := replicas(t, 2)
	mustExec(t, cs[0], "CREATE TABLE t (id INTEGER)")
	const writesPerReplica = 50
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for _, c := range cs {
		writers.Add(1)
		go func(c datasource.Conn) {
			defer writers.Done()
			for i := 0; i < writesPerReplica; i++ {
				if _, err := c.Exec(ctx, "INSERT INTO t (id) VALUES (?)", i); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func(c datasource.Conn) {
				defer readers.Done()
				var last int64
				for {
					select {
					case <-stop:
						return
					default:
					}
					rows, err := c.Query(ctx, "SELECT COUNT(*) FROM t")
					if err != nil {
						t.Error(err)
						return
					}
					n := rows.Int(0, 0)
					if n < last {
						t.Errorf("count went back from %d to %d", last, n)
						return
					}
					last = n
				}
			}(c)
		}
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for i, c := range cs {
		if n := count(t, c); n != 2*writesPerReplica {
			t.Fatalf("replica %d sees %d rows, want %d", i, n, 2*writesPerReplica)
		}
	}
}

func TestCancelledContextRefusedBeforeLocking(t *testing.T) {
	cs, path := replicas(t, 1)
	c := cs[0]
	mustExec(t, c, "CREATE TABLE t (id INTEGER)")
	// Hold both locks through descriptors of our own: a statement or a
	// bootstrap that got as far as flock would block until they are released.
	for _, p := range []string{path, path + ".lock"} {
		f, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
			t.Fatal(err)
		}
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	done := make(chan error, 3)
	go func() {
		_, err := c.Query(cancelled, "SELECT COUNT(*) FROM t")
		done <- err
		_, err = c.Exec(cancelled, "INSERT INTO t (id) VALUES (1)")
		done <- err
		done <- c.(datasource.Bootstrapper).Bootstrap(cancelled, func(datasource.Conn) error {
			t.Error("bootstrap callback ran under a cancelled context")
			return nil
		})
	}()
	for _, op := range []string{"Query", "Exec", "Bootstrap"} {
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s under a cancelled context: %v, want context.Canceled", op, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s under a cancelled context blocked on a lock", op)
		}
	}
}
