package qrcache

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/datasource"
	"autowebcache/internal/memdb"
)

func newFixture(t *testing.T, maxBytes int64) (*memdb.DB, *Conn) {
	t.Helper()
	db := memdb.New()
	db.MustCreateTable(memdb.TableSpec{
		Name: "t",
		Columns: []memdb.Column{
			{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
			{Name: "grp", Type: memdb.TypeInt},
			{Name: "val", Type: memdb.TypeInt},
		},
		Indexed: []string{"grp"},
	})
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		if _, err := db.Exec(ctx, "INSERT INTO t (grp, val) VALUES (?, ?)", i%5, i); err != nil {
			t.Fatal(err)
		}
	}
	engine, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	// Pin 8 stripes so the cross-shard paths are exercised even when the
	// test host has GOMAXPROCS=1.
	c, err := New(db, engine, Options{MaxBytes: maxBytes, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	return db, c
}

func TestValidation(t *testing.T) {
	db := memdb.New()
	engine, _ := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if _, err := New(nil, engine, Options{}); err == nil {
		t.Error("expected error for nil base")
	}
	if _, err := New(db, nil, Options{}); err == nil {
		t.Error("expected error for nil engine")
	}
	// The governance rules are the store's; its error must surface here.
	for _, opts := range []Options{{MaxBytes: -1}, {Shards: -1}, {Admission: true}} {
		if _, err := New(db, engine, opts); err == nil {
			t.Errorf("expected error for %+v", opts)
		}
	}
}

func TestHitServesCachedResult(t *testing.T) {
	db, c := newFixture(t, 0)
	ctx := context.Background()
	before := db.Stats()
	r1, err := c.Query(ctx, "SELECT val FROM t WHERE grp = ? ORDER BY id ASC", 2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Query(ctx, "SELECT val FROM t WHERE grp = ? ORDER BY id ASC", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Data, r2.Data) {
		t.Fatal("cached result differs")
	}
	after := db.Stats()
	if after.Queries != before.Queries+1 {
		t.Fatalf("base executed %d queries, want 1", after.Queries-before.Queries)
	}
	st := c.Snapshot()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestResultIsSharedSnapshot pins the zero-copy contract: the result set is
// snapshotted once at insert, and the miss and every subsequent hit hand out
// that same immutable snapshot by reference.
func TestResultIsSharedSnapshot(t *testing.T) {
	_, c := newFixture(t, 0)
	ctx := context.Background()
	r1, err := c.Query(ctx, "SELECT val FROM t WHERE grp = ?", 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Query(ctx, "SELECT val FROM t WHERE grp = ?", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("hit copied the result set instead of returning the stored snapshot")
	}
	// The snapshot must not alias the base database's storage: writing the
	// rows through the base must not change the held view (invalidation
	// removes the entry; the old view stays frozen).
	if _, err := c.Exec(ctx, "UPDATE t SET val = ? WHERE grp = ?", -999, 1); err != nil {
		t.Fatal(err)
	}
	if r1.Int(0, 0) == -999 {
		t.Fatal("cached snapshot aliases table storage")
	}
	r3, err := c.Query(ctx, "SELECT val FROM t WHERE grp = ?", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Fatal("invalidated snapshot was served again")
	}
	if r3.Int(0, 0) != -999 {
		t.Fatalf("post-invalidation read is stale: %v", r3.Data[0][0])
	}
}

func TestWriteInvalidatesIntersecting(t *testing.T) {
	_, c := newFixture(t, 0)
	ctx := context.Background()
	if _, err := c.Query(ctx, "SELECT val FROM t WHERE grp = ?", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "SELECT val FROM t WHERE grp = ?", 2); err != nil {
		t.Fatal(err)
	}
	// Update rows of grp 1 only.
	if _, err := c.Exec(ctx, "UPDATE t SET val = val + 100 WHERE grp = ?", 1); err != nil {
		t.Fatal(err)
	}
	st := c.Snapshot()
	if st.Invalidations != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// grp 2 still served from cache; grp 1 refetched fresh.
	r1, err := c.Query(ctx, "SELECT val FROM t WHERE grp = ? ORDER BY id ASC", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Int(0, 0) < 100 {
		t.Fatalf("stale result after write: %+v", r1.Data)
	}
}

func TestCapacityEviction(t *testing.T) {
	// Every group holds six rows, so every result costs the same; size the
	// budget from one measured result to hold three but not four.
	ctx := context.Background()
	const sql = "SELECT val FROM t WHERE grp = ?"
	_, probe := newFixture(t, 0)
	if _, err := probe.Query(ctx, sql, 0); err != nil {
		t.Fatal(err)
	}
	one := probe.Snapshot().Bytes
	max := 3*one + one/2
	_, c := newFixture(t, max)
	for g := 0; g < 5; g++ {
		if _, err := c.Query(ctx, sql, g); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Snapshot()
	if st.Bytes > max || st.Entries != 3 {
		t.Fatalf("capacity exceeded: bytes %d of %d: %+v", st.Bytes, max, st)
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions: %+v", st)
	}
}

// TestConsistencyProperty: under random reads and writes, the caching
// connection must return exactly what the raw database returns.
func TestConsistencyProperty(t *testing.T) {
	db, c := newFixture(t, 0)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(43))
	reads := []string{
		"SELECT val FROM t WHERE grp = ? ORDER BY id ASC",
		"SELECT COUNT(*) FROM t WHERE grp = ?",
		"SELECT id, val FROM t WHERE val < ? ORDER BY id ASC",
	}
	for i := 0; i < 500; i++ {
		if rng.Intn(4) == 0 {
			switch rng.Intn(3) {
			case 0:
				if _, err := c.Exec(ctx, "UPDATE t SET val = ? WHERE grp = ?", rng.Intn(100), rng.Intn(5)); err != nil {
					t.Fatal(err)
				}
			case 1:
				if _, err := c.Exec(ctx, "INSERT INTO t (grp, val) VALUES (?, ?)", rng.Intn(5), rng.Intn(100)); err != nil {
					t.Fatal(err)
				}
			default:
				if _, err := c.Exec(ctx, "DELETE FROM t WHERE id = ?", 1+rng.Intn(40)); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		sql := reads[rng.Intn(len(reads))]
		arg := rng.Intn(60)
		got, err := c.Query(ctx, sql, arg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Query(ctx, sql, arg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Data, want.Data) {
			t.Fatalf("iteration %d: stale result for %q(%d):\n got %v\nwant %v", i, sql, arg, got.Data, want.Data)
		}
	}
	if st := c.Snapshot(); st.Hits == 0 {
		t.Fatal("no hits; property not exercised")
	}
}

func TestBadSQLPassesThrough(t *testing.T) {
	_, c := newFixture(t, 0)
	if _, err := c.Query(context.Background(), "NOT SQL"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := c.Exec(context.Background(), "NOT SQL"); err == nil {
		t.Fatal("expected error")
	}
}

func ExampleConn() {
	db := memdb.New()
	db.MustCreateTable(memdb.TableSpec{
		Name: "kv",
		Columns: []memdb.Column{
			{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
			{Name: "v", Type: memdb.TypeString},
		},
	})
	ctx := context.Background()
	engine, _ := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	c, _ := New(db, engine, Options{})
	_, _ = c.Exec(ctx, "INSERT INTO kv (v) VALUES ('a')")
	_, _ = c.Query(ctx, "SELECT v FROM kv WHERE id = ?", 1) // miss
	_, _ = c.Query(ctx, "SELECT v FROM kv WHERE id = ?", 1) // hit
	st := c.Snapshot()
	fmt.Println(st.Hits, st.Misses)
	// Output: 1 1
}

// TestCaptureDoesNotPolluteCache: the engine's own extra queries (pre-write
// captures) may read through the cache but must not be stored — their
// results are invalidated by the very write that triggered them.
func TestCaptureDoesNotPolluteCache(t *testing.T) {
	_, c := newFixture(t, 0)
	ctx := context.Background()
	before := c.Snapshot()
	// An UPDATE under AC-extraQuery triggers a capture SELECT.
	if _, err := c.Exec(ctx, "UPDATE t SET val = ? WHERE grp = ?", 1, 3); err != nil {
		t.Fatal(err)
	}
	after := c.Snapshot()
	if after.Entries != before.Entries {
		t.Fatalf("capture query was stored: %+v -> %+v", before, after)
	}
}

// overtakenConn is a datasource.Conn whose first Query, once it has read the
// database, lets a write run before it returns — the deterministic form of a
// read overtaken by a write between the base read and the cache insert.
type overtakenConn struct {
	datasource.Conn
	write func()
}

func (o *overtakenConn) Query(ctx context.Context, sql string, args ...any) (*datasource.Rows, error) {
	rows, err := o.Conn.Query(ctx, sql, args...)
	if write := o.write; write != nil && err == nil {
		o.write = nil
		rows = rows.Snapshot() // freeze the pre-write rows
		write()
	}
	return rows, err
}

// TestQueryInsertAfterWriteIsNotServed pins §3.2 across the read->insert
// window: a Query that reads the database, is overtaken by an Exec (whose
// sweep finds nothing to remove yet) and only then inserts must not leave
// the pre-write rows in the cache.
func TestQueryInsertAfterWriteIsNotServed(t *testing.T) {
	db, _ := newFixture(t, 0)
	engine, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	base := &overtakenConn{Conn: db}
	c, err := New(base, engine, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const read = "SELECT val FROM t WHERE grp = ? ORDER BY id ASC"
	base.write = func() {
		if _, err := c.Exec(ctx, "UPDATE t SET val = ? WHERE grp = ?", -999, 1); err != nil {
			t.Error(err)
		}
	}
	overtaken, err := c.Query(ctx, read, 1)
	if err != nil {
		t.Fatal(err)
	}
	if overtaken.Int(0, 0) == -999 {
		t.Fatal("fixture broken: the first read must see the pre-write rows")
	}
	// The write completed before the insert, so the known-stale rows must
	// never have been linked (no window in which a reader could hit them).
	if st := c.Snapshot(); st.Inserts != 0 || st.Entries != 0 {
		t.Fatalf("known-stale rows were linked: %+v", st)
	}
	after, err := c.Query(ctx, read, 1)
	if err != nil {
		t.Fatal(err)
	}
	if after.Int(0, 0) != -999 {
		t.Fatalf("read after the write returned pre-write rows %v: the overtaken insert was served (%+v)",
			after.Data, c.Snapshot())
	}
}
