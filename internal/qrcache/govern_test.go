package qrcache

// The result cache's own governance tests: what a result set costs and that
// a refused one is still served. The budget, segment, admission and drain
// contracts are the store's and run once, in internal/cache/store_test.go.

import (
	"context"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/memdb"
)

// governFixture builds a db with one table of n rows per group and a
// governed result cache over it.
func governFixture(t *testing.T, opts Options, groups, rowsPerGroup int) (*memdb.DB, *Conn) {
	t.Helper()
	db := memdb.New()
	if err := db.CreateTable(memdb.TableSpec{
		Name: "t",
		Columns: []memdb.Column{
			{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
			{Name: "grp", Type: memdb.TypeInt},
			{Name: "val", Type: memdb.TypeString},
		},
		Indexed: []string{"grp"},
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for g := 0; g < groups; g++ {
		for i := 0; i < rowsPerGroup; i++ {
			if _, err := db.Exec(ctx, "INSERT INTO t (grp, val) VALUES (?, ?)", g, "payload-string"); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, db)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := New(db, eng, opts)
	if err != nil {
		t.Fatal(err)
	}
	return db, qr
}

const groupSQL = "SELECT id, val FROM t WHERE grp = ?"

func TestQrZeroRowResultIsCached(t *testing.T) {
	_, qr := governFixture(t, Options{MaxBytes: 1 << 16}, 1, 5)
	ctx := context.Background()
	// grp=99 has no rows: an empty result set still caches (and costs its
	// key + overhead).
	rows, err := qr.Query(ctx, groupSQL, 99)
	if err != nil || rows.Len() != 0 {
		t.Fatalf("rows=%v err=%v", rows, err)
	}
	if st := qr.Snapshot(); st.Entries != 1 || st.Bytes < entryOverhead {
		t.Fatalf("empty result not accounted: %+v", st)
	}
	if _, err := qr.Query(ctx, groupSQL, 99); err != nil {
		t.Fatal(err)
	}
	if st := qr.Snapshot(); st.Hits != 1 {
		t.Fatalf("empty result not served from cache: %+v", st)
	}
}

func TestQrOversizeResultServedNotCached(t *testing.T) {
	_, qr := governFixture(t, Options{MaxBytes: 128}, 1, 50)
	ctx := context.Background()
	rows, err := qr.Query(ctx, groupSQL, 0)
	if err != nil || rows.Len() != 50 {
		t.Fatalf("rows=%d err=%v", rows.Len(), err)
	}
	st := qr.Snapshot()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversize result leaked into cache: %+v", st)
	}
	if st.OversizeRejects != 1 {
		t.Fatalf("OversizeRejects = %d, want 1", st.OversizeRejects)
	}
}
