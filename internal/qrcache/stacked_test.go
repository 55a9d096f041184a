package qrcache

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/memdb"
	"autowebcache/internal/servlet"
	"autowebcache/internal/weave"
)

// TestStackedUnderPageCache pins the PageCache+QueryCache deployment of
// experiments -fig C: the page cache's recording connection stacked over
// the result cache (weave.NewConn(qrcache.New(db, ...))). A write must
// remove both the dependent page and its result set, and the next read
// must render the post-write rows — no stale page through stacked caches.
func TestStackedUnderPageCache(t *testing.T) {
	db := memdb.New()
	db.MustCreateTable(memdb.TableSpec{
		Name: "notes",
		Columns: []memdb.Column{
			{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
			{Name: "note", Type: memdb.TypeString},
		},
	})
	eng, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	qc, err := New(db, eng, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pages, err := cache.New(cache.Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	conn := weave.NewConn(qc, eng)
	woven, err := weave.New([]servlet.HandlerInfo{
		{Name: "List", Path: "/list", Fn: func(w http.ResponseWriter, r *http.Request) {
			rows, err := conn.Query(r.Context(), "SELECT id, note FROM notes ORDER BY id ASC")
			if err != nil {
				servlet.ServerError(w, err)
				return
			}
			for i := 0; i < rows.Len(); i++ {
				fmt.Fprintf(w, "%d: %s\n", rows.Int(i, 0), rows.Str(i, 1))
			}
		}},
		{Name: "Add", Path: "/add", Write: true, Fn: func(w http.ResponseWriter, r *http.Request) {
			if _, err := conn.Exec(r.Context(), "INSERT INTO notes (note) VALUES (?)", servlet.Param(r, "note")); err != nil {
				servlet.ServerError(w, err)
			}
		}},
	}, pages, weave.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(target string) string {
		t.Helper()
		rr := httptest.NewRecorder()
		woven.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", target, rr.Code, rr.Body.String())
		}
		return rr.Body.String()
	}

	get("/add?note=a")
	if body := get("/list"); body != "1: a\n" {
		t.Fatalf("first read %q", body)
	}
	if !pages.Contains("/list") || qc.Snapshot().Entries != 1 {
		t.Fatalf("stack not primed: page cached %v, result sets %d", pages.Contains("/list"), qc.Snapshot().Entries)
	}

	get("/add?note=b")
	if pages.Contains("/list") {
		t.Fatal("the write left the dependent page cached")
	}
	if st := qc.Snapshot(); st.Entries != 0 || st.Invalidations == 0 {
		t.Fatalf("the write left the dependent result set cached: %+v", st)
	}
	if body, want := get("/list"), "1: a\n2: b\n"; body != want {
		t.Fatalf("stale page through stacked caches: %q, want %q", body, want)
	}
}
