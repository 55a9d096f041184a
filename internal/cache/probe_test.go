package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/memdb"
)

// TestProbeIndexMatchesFullScan: invalidation with the probe index must
// remove exactly the same pages as an exhaustive instance sweep. The two
// caches share an engine; one is fed probe-indexable templates, the other a
// probe-defeating variant with identical semantics.
func TestProbeIndexMatchesFullScan(t *testing.T) {
	engine, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	indexed, err := New(Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	// `b = ? AND 1 = 1` parses to a conjunction whose first eq pred still
	// probes; defeat probing instead with `(b = ? OR 1 = 0)` — same rows,
	// no top-level equality conjunct.
	const probeSQL = "SELECT a FROM T WHERE b = ?"
	const noProbeSQL = "SELECT a FROM T WHERE b = ? OR 1 = 0"
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 60; i++ {
		v := int64(rng.Intn(8))
		key := fmt.Sprintf("/p?b=%d&i=%d", v, i)
		indexed.Insert(key, []byte("x"), "text/html",
			[]analysis.Query{{SQL: probeSQL, Args: []memdb.Value{v}}}, 0)
		plain.Insert(key, []byte("x"), "text/html",
			[]analysis.Query{{SQL: noProbeSQL, Args: []memdb.Value{v}}}, 0)
	}
	for i := 0; i < 40; i++ {
		w := analysis.WriteCapture{Query: analysis.Query{
			SQL:  "UPDATE T SET a = ? WHERE b = ?",
			Args: []memdb.Value{int64(i), int64(rng.Intn(8))},
		}}
		n1, err := indexed.InvalidateWrite(w)
		if err != nil {
			t.Fatal(err)
		}
		n2, err := plain.InvalidateWrite(w)
		if err != nil {
			t.Fatal(err)
		}
		if n1 != n2 {
			t.Fatalf("write %d: probe-indexed invalidated %d, full scan %d", i, n1, n2)
		}
		if indexed.Len() != plain.Len() {
			t.Fatalf("write %d: cache sizes diverged %d vs %d", i, indexed.Len(), plain.Len())
		}
	}
}

// TestProbeIndexColumnOnlyUnaffected: the ColumnOnly strategy must ignore
// probe values entirely (its whole point is value-blindness).
func TestProbeIndexColumnOnlyUnaffected(t *testing.T) {
	engine, err := analysis.NewEngine(analysis.StrategyColumnOnly, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	c.Insert("/p1", []byte("x"), "text/html",
		[]analysis.Query{{SQL: "SELECT a FROM T WHERE b = ?", Args: []memdb.Value{int64(1)}}}, 0)
	c.Insert("/p2", []byte("x"), "text/html",
		[]analysis.Query{{SQL: "SELECT a FROM T WHERE b = ?", Args: []memdb.Value{int64(2)}}}, 0)
	n, err := c.InvalidateWrite(analysis.WriteCapture{Query: analysis.Query{
		SQL: "UPDATE T SET a = ? WHERE b = ?", Args: []memdb.Value{int64(9), int64(1)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("ColumnOnly should invalidate both pages, got %d", n)
	}
}

func TestForceMiss(t *testing.T) {
	engine, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{Engine: engine, ForceMiss: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Insert("/k", []byte("v"), "text/html", nil, 0)
	if _, ok := c.Lookup("/k"); ok {
		t.Fatal("ForceMiss cache must never hit")
	}
	st := c.Snapshot()
	if st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestProbeIndexCleanupOnRemoval: removing pages must purge probe-index
// entries so invalidation never resurrects stale instances.
func TestProbeIndexCleanupOnRemoval(t *testing.T) {
	engine, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	dep := analysis.Query{SQL: "SELECT a FROM T WHERE b = ?", Args: []memdb.Value{int64(1)}}
	c.Insert("/k", []byte("v"), "text/html", []analysis.Query{dep}, 0)
	c.InvalidateKey("/k")
	st := c.Snapshot()
	if st.DepTemplates != 0 || st.DepInstances != 0 {
		t.Fatalf("dependency table not cleaned: %+v", st)
	}
	// A subsequent write must find nothing.
	n, err := c.InvalidateWrite(analysis.WriteCapture{Query: analysis.Query{
		SQL: "UPDATE T SET a = ? WHERE b = ?", Args: []memdb.Value{int64(9), int64(1)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("invalidated %d pages from an empty cache", n)
	}
}
