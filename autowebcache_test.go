package autowebcache_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"autowebcache"
)

// buildApp creates a one-table application against the runtime's conn.
func buildApp(t *testing.T, conn autowebcache.Conn) []autowebcache.HandlerInfo {
	t.Helper()
	list := func(w http.ResponseWriter, r *http.Request) {
		rows, err := conn.Query(r.Context(), "SELECT id, note FROM notes ORDER BY id ASC")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
		for i := 0; i < rows.Len(); i++ {
			fmt.Fprintf(w, "%d: %s\n", rows.Int(i, 0), rows.Str(i, 1))
		}
	}
	add := func(w http.ResponseWriter, r *http.Request) {
		if _, err := conn.Exec(r.Context(), "INSERT INTO notes (note) VALUES (?)", r.URL.Query().Get("note")); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}
	return []autowebcache.HandlerInfo{
		{Name: "List", Path: "/list", Fn: list},
		{Name: "Add", Path: "/add", Write: true, Fn: add},
	}
}

func newDB(t *testing.T) *autowebcache.DB {
	t.Helper()
	db := autowebcache.NewDB()
	if err := db.CreateTable(autowebcache.TableSpec{
		Name: "notes",
		Columns: []autowebcache.Column{
			{Name: "id", Type: autowebcache.TypeInt, AutoIncrement: true},
			{Name: "note", Type: autowebcache.TypeString},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func get(t *testing.T, h http.Handler, target string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil))
	return rr
}

func TestFacadeEndToEnd(t *testing.T) {
	db := newDB(t)
	rt, err := autowebcache.New(db, autowebcache.Config{Strategy: autowebcache.ExtraQuery})
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.Weave(buildApp(t, rt.Conn()), autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	get(t, h, "/add?note=hello")
	first := get(t, h, "/list")
	second := get(t, h, "/list")
	if first.Body.String() != second.Body.String() {
		t.Fatal("cached page differs")
	}
	if rt.Cache().Snapshot().Hits != 1 {
		t.Fatalf("cache stats: %+v", rt.Cache().Snapshot())
	}
	get(t, h, "/add?note=world")
	third := get(t, h, "/list")
	if third.Body.String() == second.Body.String() {
		t.Fatal("stale page served after write")
	}
	if want := "1: hello\n2: world\n"; third.Body.String() != want {
		t.Fatalf("page: %q", third.Body.String())
	}
}

func TestFacadeDisabled(t *testing.T) {
	db := newDB(t)
	rt, err := autowebcache.New(db, autowebcache.Config{Disabled: true})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Cache() != nil {
		t.Fatal("disabled runtime should have no cache")
	}
	h, err := rt.Weave(buildApp(t, rt.Conn()), autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	rr := get(t, h, "/list")
	if rr.Code != http.StatusOK {
		t.Fatalf("status: %d", rr.Code)
	}
}

func TestFacadeValidation(t *testing.T) {
	if _, err := autowebcache.New(nil, autowebcache.Config{}); err == nil {
		t.Fatal("expected error for nil db")
	}
	db := newDB(t)
	if _, err := autowebcache.New(db, autowebcache.Config{PageCache: autowebcache.PageCacheConfig{MaxBytes: -1}}); err == nil {
		t.Fatal("expected error for a negative byte budget")
	}
}

// TestFacadeBoundedCache: PageCache.MaxBytes bounds the page cache by
// eviction — without Admission every page is inserted and older ones make
// room for it.
func TestFacadeBoundedCache(t *testing.T) {
	db := newDB(t)
	const budget = 1024
	rt, err := autowebcache.New(db, autowebcache.Config{PageCache: autowebcache.PageCacheConfig{MaxBytes: budget}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.Weave(buildApp(t, rt.Conn()), autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	// Distinct query strings create distinct page keys.
	for i := 0; i < 20; i++ {
		get(t, h, fmt.Sprintf("/list?v=%d", i))
	}
	st := rt.Cache().Snapshot()
	if st.Bytes <= 0 || st.Bytes > budget {
		t.Fatalf("cache bytes %d outside (0, %d]: %+v", st.Bytes, budget, st)
	}
	if st.Evictions == 0 || rt.Cache().Len() >= 20 {
		t.Fatalf("20 pages over a %d-byte budget evicted nothing: %+v", budget, st)
	}
}

func TestFacadeByteGovernance(t *testing.T) {
	db := newDB(t)
	rt, err := autowebcache.New(db, autowebcache.Config{
		PageCache: autowebcache.PageCacheConfig{MaxBytes: 4096},
		Admission: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.Weave(buildApp(t, rt.Conn()), autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	get(t, h, "/add?note=hello")
	for i := 0; i < 20; i++ {
		get(t, h, fmt.Sprintf("/list?v=%d", i))
	}
	cs := rt.Cache().Snapshot()
	if cs.Bytes <= 0 || cs.Bytes > 4096 {
		t.Fatalf("page cache bytes %d outside (0, 4096]: %+v", cs.Bytes, cs)
	}
	// Admission without a byte budget is a configuration error, not a
	// no-op.
	if _, err := autowebcache.New(db, autowebcache.Config{Admission: true}); err == nil {
		t.Fatal("Admission without a byte budget must be rejected")
	}
}

func TestParseByteSize(t *testing.T) {
	cases := map[string]int64{
		"":       0,
		"0":      0,
		"1024":   1024,
		"64k":    64 << 10,
		"64kb":   64 << 10,
		"64KiB":  64 << 10,
		"8m":     8 << 20,
		"8MB":    8 << 20,
		"8mib":   8 << 20,
		"2g":     2 << 30,
		"2GiB":   2 << 30,
		" 16 m ": 16 << 20,
	}
	for in, want := range cases {
		got, err := autowebcache.ParseByteSize(in)
		if err != nil {
			t.Errorf("ParseByteSize(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseByteSize(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"x", "-1", "1.5m", "mm", "12q", "18014398509481985k", "9223372036854775807g"} {
		if _, err := autowebcache.ParseByteSize(bad); err == nil {
			t.Errorf("ParseByteSize(%q) succeeded", bad)
		}
	}
}

// TestClusterConfigValidation covers Runtime.Cluster's configuration error
// paths: every rejected shape must fail loudly instead of silently running
// unclustered (or half-clustered).
func TestClusterConfigValidation(t *testing.T) {
	db := newDB(t)
	rt, err := autowebcache.New(db, autowebcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.Weave(buildApp(t, rt.Conn()), autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}

	// Empty config: clustering off, nil node, no error.
	node, err := rt.Cluster(h, autowebcache.ClusterConfig{})
	if err != nil || node != nil {
		t.Fatalf("empty cluster config: node=%v err=%v, want nil/nil", node, err)
	}

	// Peers without ListenPeer is a misconfiguration, not silence.
	if _, err := rt.Cluster(h, autowebcache.ClusterConfig{Peers: []string{"127.0.0.1:9"}}); err == nil {
		t.Fatal("Peers without ListenPeer accepted")
	}

	// The Disabled (baseline) configuration cannot cluster: there is no
	// cache to keep consistent.
	rtOff, err := autowebcache.New(newDB(t), autowebcache.Config{Disabled: true})
	if err != nil {
		t.Fatal(err)
	}
	hOff, err := rtOff.Weave(buildApp(t, rtOff.Conn()), autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rtOff.Cluster(hOff, autowebcache.ClusterConfig{ListenPeer: "127.0.0.1:0"}); err == nil {
		t.Fatal("clustering a Disabled runtime accepted")
	}

	// An unroutable listen with peers configured must error (ring identity
	// would silently disagree across nodes otherwise).
	if _, err := rt.Cluster(h, autowebcache.ClusterConfig{
		ListenPeer: ":0", Peers: []string{"127.0.0.1:9"},
	}); err == nil {
		t.Fatal("unroutable ring identity accepted")
	}
}

// TestFacadeFragments drives fragment-granular caching through the public
// API: a fragmented handler with a personalised hole, enabled by
// Rules.Fragments.
func TestFacadeFragments(t *testing.T) {
	db := newDB(t)
	if _, err := db.Exec(t.Context(), "INSERT INTO notes (note) VALUES (?)", "shared"); err != nil {
		t.Fatal(err)
	}
	rt, err := autowebcache.New(db, autowebcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	conn := rt.Conn()
	frag := autowebcache.Segment{ID: "notes", Gen: func(w http.ResponseWriter, r *http.Request) {
		rows, err := conn.Query(r.Context(), "SELECT note FROM notes ORDER BY id ASC")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		for i := 0; i < rows.Len(); i++ {
			fmt.Fprintf(w, "[%s]", rows.Str(i, 0))
		}
	}}
	hole := autowebcache.Segment{Gen: func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "(user %s)", r.URL.Query().Get("u"))
	}}
	handlers := []autowebcache.HandlerInfo{
		{Name: "Page", Path: "/page", Fragments: []autowebcache.Segment{frag, hole}},
		buildApp(t, conn)[1], // the Add write
	}
	h, err := rt.Weave(handlers, autowebcache.Rules{Fragments: true})
	if err != nil {
		t.Fatal(err)
	}
	if rr := get(t, h, "/page?u=alice"); rr.Header().Get("X-Autowebcache") != "miss" {
		t.Fatalf("cold outcome %q", rr.Header().Get("X-Autowebcache"))
	}
	rr := get(t, h, "/page?u=bob")
	if got := rr.Header().Get("X-Autowebcache"); got != "fragment-hit" {
		t.Fatalf("warm outcome %q, want fragment-hit", got)
	}
	if body := rr.Body.String(); body != "[shared](user bob)" {
		t.Fatalf("assembled body %q", body)
	}
	// The write invalidates the fragment; the next assembly regenerates.
	if rr := get(t, h, "/add?note=two"); rr.Code != http.StatusOK {
		t.Fatalf("add: %d", rr.Code)
	}
	rr = get(t, h, "/page?u=carol")
	if got := rr.Header().Get("X-Autowebcache"); got != "miss" {
		t.Fatalf("post-write outcome %q, want miss", got)
	}
	if body := rr.Body.String(); body != "[shared][two](user carol)" {
		t.Fatalf("post-write body %q", body)
	}
}

// TestFacadeTieredWarmRestart drives the disk tier end to end through the
// façade: a runtime with PageCache.L2Path spills its pages on Close, and a
// fresh runtime over the same directory serves the first request straight
// from the store — proven by pointing it at an EMPTY database, which the
// warm hit must never touch. A write then invalidates the promoted page and
// the regenerated body reflects the new database, not the old cache.
func TestFacadeTieredWarmRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := autowebcache.Config{
		Strategy:  autowebcache.ExtraQuery,
		PageCache: autowebcache.PageCacheConfig{L2Path: dir, L2MaxBytes: 1 << 20},
	}

	rt, err := autowebcache.New(newDB(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := rt.Weave(buildApp(t, rt.Conn()), autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	get(t, h, "/add?note=hello")
	warmBody := get(t, h, "/list").Body.String()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over an empty database: the page must come back warm.
	rt2, err := autowebcache.New(newDB(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	h2, err := rt2.Weave(buildApp(t, rt2.Conn()), autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	rr := get(t, h2, "/list")
	if rr.Header().Get("X-Autowebcache") != "hit" {
		t.Fatalf("restart outcome %q, want hit (served from the disk tier)", rr.Header().Get("X-Autowebcache"))
	}
	if rr.Body.String() != warmBody {
		t.Fatalf("warm body %q, want %q", rr.Body.String(), warmBody)
	}
	st := rt2.Cache().Snapshot()
	if st.Promotions == 0 || st.L2.RestoredEntries == 0 {
		t.Fatalf("warm serve did not come through the store: %+v", st)
	}

	// A write invalidates the promoted page; the regenerated body reads the
	// (empty, then one-row) new database — never the pre-restart cache.
	get(t, h2, "/add?note=fresh")
	rr = get(t, h2, "/list")
	if rr.Header().Get("X-Autowebcache") != "miss" {
		t.Fatalf("post-write outcome %q, want miss", rr.Header().Get("X-Autowebcache"))
	}
	if want := "1: fresh\n"; rr.Body.String() != want {
		t.Fatalf("post-write body %q, want %q", rr.Body.String(), want)
	}
}
