package cache

// The page cache's governance as pages see it: what a page costs. The
// budget, segment, admission and drain contracts run with explicit costs, in
// store_test.go.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/memdb"
)

func governedCache(t *testing.T, opts Options) *Cache {
	t.Helper()
	if opts.Engine == nil {
		eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
		if err != nil {
			t.Fatal(err)
		}
		opts.Engine = eng
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func depOn(i int) []analysis.Query {
	return []analysis.Query{{SQL: "SELECT a FROM t WHERE b = ?", Args: []memdb.Value{int64(i)}}}
}

// TestPageCostIsCharged: what the page layer charges the store is entryCost —
// body, key and dependency info — and a replacement swaps it.
func TestPageCostIsCharged(t *testing.T) {
	c := governedCache(t, Options{})
	for _, body := range [][]byte{make([]byte, 1000), make([]byte, 500)} {
		c.Insert("/a", body, "text/html", depOn(1), 0)
		if got, want := c.Bytes(), entryCost("/a", body, depOn(1)); got != want {
			t.Fatalf("bytes after inserting %d-byte body = %d, want %d", len(body), got, want)
		}
	}
}

func TestZeroByteBodyIsAccountedAndServed(t *testing.T) {
	c := governedCache(t, Options{MaxBytes: 4096})
	pg, stored := c.TryInsert("/empty", nil, "text/html", nil, 0)
	if !stored {
		t.Fatal("zero-byte body rejected")
	}
	if len(pg.Body) != 0 {
		t.Fatalf("body = %q", pg.Body)
	}
	got, ok := c.Lookup("/empty")
	if !ok || len(got.Body) != 0 {
		t.Fatalf("lookup = %+v ok=%v", got, ok)
	}
	// Even an empty page carries its key + bookkeeping cost.
	if c.Bytes() < entryOverhead {
		t.Fatalf("bytes = %d, want >= %d", c.Bytes(), entryOverhead)
	}
}

func TestOversizeEntryServedNotCached(t *testing.T) {
	c := governedCache(t, Options{MaxBytes: 1024})
	big := make([]byte, 4096)
	pg, stored := c.TryInsert("/big", big, "text/html", nil, 0)
	if stored {
		t.Fatal("oversize entry claimed stored")
	}
	if len(pg.Body) != len(big) {
		t.Fatal("oversize entry not servable")
	}
	if _, ok := c.Lookup("/big"); ok {
		t.Fatal("oversize entry found in cache")
	}
	st := c.Snapshot()
	if st.OversizeRejects != 1 {
		t.Fatalf("OversizeRejects = %d, want 1", st.OversizeRejects)
	}
	if st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("oversize reject leaked accounting: %+v", st)
	}
	// The returned view must be private: the cache took no ownership, so
	// mutating the caller's original buffer must not affect it.
	big[0] = 'x'
	if pg.Body[0] == 'x' {
		t.Fatal("returned view aliases the caller's buffer")
	}
}

func TestGovernedHitPathZeroAllocs(t *testing.T) {
	c := governedCache(t, Options{MaxBytes: 1 << 20, Admission: true})
	body := make([]byte, 1024)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("/page?x=%d", i)
		c.Insert(keys[i], body, "text/html", depOn(i), 0)
		c.Lookup(keys[i]) // promote past the one-time probation->protected move
	}
	i := 0
	if n := testing.AllocsPerRun(500, func() {
		if _, ok := c.Lookup(keys[i%len(keys)]); !ok {
			t.Fatal("unexpected miss")
		}
		i++
	}); n != 0 {
		t.Fatalf("governed hit path allocated %.2f/op, want 0", n)
	}
}

// TestInsertInvalidateAllocs: storing a page costs the body copy and the
// node that links it, nothing more, bounded or not — the entry is the node's
// own payload, not a box beside it.
func TestInsertInvalidateAllocs(t *testing.T) {
	for _, maxBytes := range []int64{0, 1 << 20} {
		c := governedCache(t, Options{MaxBytes: maxBytes})
		body := make([]byte, 1024)
		if n := testing.AllocsPerRun(200, func() {
			if _, stored := c.TryInsert("/page", body, "text/html", nil, 0); !stored {
				t.Fatal("insert refused")
			}
			if !c.InvalidateKey("/page") {
				t.Fatal("nothing removed")
			}
		}); n != 2 {
			t.Fatalf("MaxBytes=%d: insert+invalidate allocated %.2f/op, want 2", maxBytes, n)
		}
	}
}

// TestStatsJSONKeys: /statsz serves Stats as JSON, so its keys and their
// order are operator-facing and must not move.
func TestStatsJSONKeys(t *testing.T) {
	b, err := json.Marshal(Stats{})
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		"Hits", "Misses", "Inserts", "Invalidations", "Evictions", "Expirations",
		"WritesSeen", "AdmissionRejects", "OversizeRejects", "Entries",
		"DepTemplates", "DepInstances", "Bytes", "ProbationEntries",
		"ProtectedEntries", "ProbationBytes", "ProtectedBytes",
		"EvictionsProbation", "EvictionsProtected", "GzipCompressions",
		"VariantBytes", "Demotions", "Spills", "Promotions", "PromoteAborts", "L2",
		"WindowSpared",
	}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("Stats JSON keys:\n got %v\nwant %v", keys, want)
	}
}
