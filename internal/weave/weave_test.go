package weave

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/memdb"
	"autowebcache/internal/servlet"
)

// testApp is a minimal two-interaction application: a listing of items in a
// category (read) and a price update (write).
func testApp(t *testing.T, conn memdb.Conn) []servlet.HandlerInfo {
	t.Helper()
	list := func(w http.ResponseWriter, r *http.Request) {
		cat := servlet.ParamInt(r, "cat", 0)
		rows, err := conn.Query(r.Context(), "SELECT id, name, price FROM items WHERE category = ? ORDER BY id ASC", cat)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		p := servlet.NewPage(fmt.Sprintf("Category %d", cat))
		p.Table([]string{"id", "name", "price"}, rows)
		p.WriteHTML(w)
	}
	reprice := func(w http.ResponseWriter, r *http.Request) {
		id := servlet.ParamInt(r, "id", 0)
		price := servlet.ParamInt(r, "price", 0)
		if _, err := conn.Exec(r.Context(), "UPDATE items SET price = ? WHERE id = ?", price, id); err != nil {
			servlet.ServerError(w, err)
			return
		}
		servlet.NewPage("OK").WriteHTML(w)
	}
	badRead := func(w http.ResponseWriter, r *http.Request) {
		if _, err := conn.Query(r.Context(), "SELECT nosuch FROM items"); err != nil {
			// Swallow the error and render a page anyway: the weave must
			// still refuse to cache it (aborted read query, §4.2).
			servlet.NewPage("partial").WriteHTML(w)
			return
		}
		servlet.WriteHTML(w, "ok")
	}
	return []servlet.HandlerInfo{
		{Name: "ListCategory", Path: "/list", Fn: list},
		{Name: "Reprice", Path: "/reprice", Write: true, Fn: reprice},
		{Name: "BadRead", Path: "/bad", Fn: badRead},
	}
}

func newItemsDB(t *testing.T) *memdb.DB {
	t.Helper()
	db := memdb.New()
	db.MustCreateTable(memdb.TableSpec{
		Name: "items",
		Columns: []memdb.Column{
			{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
			{Name: "name", Type: memdb.TypeString},
			{Name: "price", Type: memdb.TypeInt},
			{Name: "category", Type: memdb.TypeInt},
		},
		Indexed: []string{"category"},
	})
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		if _, err := db.Exec(ctx, "INSERT INTO items (name, price, category) VALUES (?, ?, ?)",
			fmt.Sprintf("item-%d", i), 10+i, i%3); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// buildWoven wires db -> engine -> cache -> recording conn -> woven app.
func buildWoven(t *testing.T, db *memdb.DB, strategy analysis.Strategy, rules Rules) (*Woven, *cache.Cache) {
	t.Helper()
	engine, err := analysis.NewEngine(strategy, db)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(db, engine)
	w, err := New(testApp(t, conn), c, rules)
	if err != nil {
		t.Fatal(err)
	}
	return w, c
}

func get(t *testing.T, h http.Handler, target string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr, rr.Header().Get(HeaderOutcome)
}

func TestMissThenHit(t *testing.T) {
	w, c := buildWoven(t, newItemsDB(t), analysis.StrategyExtraQuery, Rules{})
	rr1, out1 := get(t, w, "/list?cat=1")
	if out1 != string(OutcomeMiss) {
		t.Fatalf("first outcome = %s", out1)
	}
	rr2, out2 := get(t, w, "/list?cat=1")
	if out2 != string(OutcomeHit) {
		t.Fatalf("second outcome = %s", out2)
	}
	if rr1.Body.String() != rr2.Body.String() {
		t.Fatal("hit body differs from generated body")
	}
	if c.Len() != 1 {
		t.Fatalf("cache len = %d", c.Len())
	}
	if ct := rr2.Header().Get("Content-Type"); ct == "" {
		t.Fatal("hit lost the content type")
	}
}

func TestWriteInvalidatesAffectedPageOnly(t *testing.T) {
	w, c := buildWoven(t, newItemsDB(t), analysis.StrategyExtraQuery, Rules{})
	get(t, w, "/list?cat=0")
	get(t, w, "/list?cat=1")
	if c.Len() != 2 {
		t.Fatalf("cache len = %d", c.Len())
	}
	// Item 1 is in category 0 (i=0).
	_, out := get(t, w, "/reprice?id=1&price=999")
	if out != string(OutcomeWrite) {
		t.Fatalf("outcome = %s", out)
	}
	if _, out := get(t, w, "/list?cat=1"); out != string(OutcomeHit) {
		t.Fatalf("cat=1 should still be cached, got %s", out)
	}
	rr, out := get(t, w, "/list?cat=0")
	if out != string(OutcomeMiss) {
		t.Fatalf("cat=0 should have been invalidated, got %s", out)
	}
	if !contains(rr.Body.String(), "999") {
		t.Fatal("regenerated page missing new price")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestColumnOnlyOverInvalidates(t *testing.T) {
	db := newItemsDB(t)
	w, c := buildWoven(t, db, analysis.StrategyColumnOnly, Rules{})
	get(t, w, "/list?cat=0")
	get(t, w, "/list?cat=1")
	// ColumnOnly cannot distinguish categories: the write touches `price`
	// which both pages read, so both go.
	get(t, w, "/reprice?id=1&price=999")
	if c.Len() != 0 {
		t.Fatalf("ColumnOnly should invalidate both pages, cache len = %d", c.Len())
	}
}

func TestUncacheableRule(t *testing.T) {
	w, c := buildWoven(t, newItemsDB(t), analysis.StrategyExtraQuery,
		Rules{Uncacheable: []string{"ListCategory"}})
	_, out := get(t, w, "/list?cat=1")
	if out != string(OutcomeUncacheable) {
		t.Fatalf("outcome = %s", out)
	}
	get(t, w, "/list?cat=1")
	if c.Len() != 0 {
		t.Fatal("uncacheable page was cached")
	}
}

func TestSemanticWindow(t *testing.T) {
	db := newItemsDB(t)
	engine, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(5000, 0)
	c, err := cache.New(cache.Options{Engine: engine, Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(db, engine)
	w, err := New(testApp(t, conn), c, Rules{Semantic: map[string]time.Duration{"ListCategory": 30 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	get(t, w, "/list?cat=0")
	if _, out := get(t, w, "/list?cat=0"); out != string(OutcomeSemanticHit) {
		t.Fatalf("outcome = %s", out)
	}
	now = now.Add(31 * time.Second)
	if _, out := get(t, w, "/list?cat=0"); out != string(OutcomeMiss) {
		t.Fatalf("outcome after window = %s", out)
	}
}

// TestSemanticWindowSurvivesWrites: pages under a semantic window must keep
// serving for the full window even when writes touch their data (§4.3 —
// BestSellers is marked cacheable for its whole 30 s dirty-read allowance).
func TestSemanticWindowSurvivesWrites(t *testing.T) {
	db := newItemsDB(t)
	engine, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(9000, 0)
	c, err := cache.New(cache.Options{Engine: engine, Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(db, engine)
	w, err := New(testApp(t, conn), c, Rules{Semantic: map[string]time.Duration{"ListCategory": 30 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := get(t, w, "/list?cat=0")
	get(t, w, "/reprice?id=1&price=424242") // item 1 is in category 0
	during, out := get(t, w, "/list?cat=0")
	if out != string(OutcomeSemanticHit) {
		t.Fatalf("outcome inside window = %s, want semantic-hit", out)
	}
	if during.Body.String() != before.Body.String() {
		t.Fatal("semantic window page changed within the window")
	}
	now = now.Add(31 * time.Second)
	after, out := get(t, w, "/list?cat=0")
	if out != string(OutcomeMiss) {
		t.Fatalf("outcome after window = %s, want miss", out)
	}
	if !contains(after.Body.String(), "424242") {
		t.Fatal("regenerated page missing post-window data")
	}
}

func TestReadErrorNotCached(t *testing.T) {
	w, c := buildWoven(t, newItemsDB(t), analysis.StrategyExtraQuery, Rules{})
	_, out := get(t, w, "/bad")
	if out != string(OutcomeMiss) {
		t.Fatalf("outcome = %s", out)
	}
	if c.Len() != 0 {
		t.Fatal("page with aborted read query was cached")
	}
}

func TestErrorStatusNotCached(t *testing.T) {
	db := newItemsDB(t)
	engine, _ := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	c, _ := cache.New(cache.Options{Engine: engine})
	failing := []servlet.HandlerInfo{{
		Name: "Fail", Path: "/fail",
		Fn: func(w http.ResponseWriter, r *http.Request) { http.Error(w, "boom", http.StatusInternalServerError) },
	}}
	w, err := New(failing, c, Rules{})
	if err != nil {
		t.Fatal(err)
	}
	rr, out := get(t, w, "/fail")
	if rr.Code != http.StatusInternalServerError || out != string(OutcomeError) {
		t.Fatalf("code=%d outcome=%s", rr.Code, out)
	}
	if c.Len() != 0 {
		t.Fatal("error page cached")
	}
}

func TestBaselinePassthrough(t *testing.T) {
	db := newItemsDB(t)
	engine, _ := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	conn := NewConn(db, engine)
	w, err := New(testApp(t, conn), nil, Rules{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, out := get(t, w, "/list?cat=1"); out != string(OutcomeNoCache) {
			t.Fatalf("outcome = %s", out)
		}
	}
	if tot := w.Stats().Totals(); tot.Requests != 2 || tot.Hits != 0 {
		t.Fatalf("stats: %+v", tot)
	}
}

func TestStatsAttribution(t *testing.T) {
	w, _ := buildWoven(t, newItemsDB(t), analysis.StrategyExtraQuery, Rules{})
	get(t, w, "/list?cat=0") // miss
	get(t, w, "/list?cat=0") // hit
	get(t, w, "/reprice?id=1&price=5")
	snap := w.Stats().Snapshot()
	byName := map[string]InteractionStats{}
	for _, s := range snap {
		byName[s.Name] = s
	}
	lc := byName["ListCategory"]
	if lc.Requests != 2 || lc.Hits != 1 || lc.Misses != 1 {
		t.Fatalf("ListCategory: %+v", lc)
	}
	rp := byName["Reprice"]
	if rp.Writes != 1 || rp.PagesInvalidated != 1 {
		t.Fatalf("Reprice: %+v", rp)
	}
	if lc.HitRate() != 0.5 {
		t.Fatalf("hit rate: %f", lc.HitRate())
	}
}

func TestValidation(t *testing.T) {
	db := newItemsDB(t)
	engine, _ := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	c, _ := cache.New(cache.Options{Engine: engine})
	if _, err := New([]servlet.HandlerInfo{{Name: "x", Path: ""}}, c, Rules{}); err == nil {
		t.Error("expected error for missing path")
	}
	h := func(w http.ResponseWriter, r *http.Request) {}
	dup := []servlet.HandlerInfo{
		{Name: "a", Path: "/p", Fn: h},
		{Name: "b", Path: "/p", Fn: h},
	}
	if _, err := New(dup, c, Rules{}); err == nil {
		t.Error("expected error for duplicate path")
	}
}

func TestPageKeyCanonical(t *testing.T) {
	key := func(target string) string { return servlet.PageKey(httptest.NewRequest("GET", target, nil)) }
	a, b := key("/x?b=2&a=1"), key("/x?a=1&b=2")
	if a != b {
		t.Fatalf("param order changed the key: %q vs %q", a, b)
	}
	if a == key("/x?a=2&b=1") {
		t.Fatal("different values produced the same key")
	}
	if key("/x") != "/x" {
		t.Fatal("empty params should be bare path")
	}
}

// TestStrongConsistencyProperty is the headline invariant: under random
// interleavings of reads and writes, the cache-enabled application serves
// byte-identical pages to an uncached oracle sharing the same database.
func TestStrongConsistencyProperty(t *testing.T) {
	for _, strategy := range []analysis.Strategy{
		analysis.StrategyColumnOnly, analysis.StrategyWhereMatch, analysis.StrategyExtraQuery,
	} {
		t.Run(strategy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(strategy) * 101))
			db := newItemsDB(t)
			w, _ := buildWoven(t, db, strategy, Rules{})
			// The oracle runs the same handlers against the same database
			// without a cache. Its reads do not modify state, so sharing
			// the database is safe.
			engine, err := analysis.NewEngine(strategy, db)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := New(testApp(t, NewConn(db, engine)), nil, Rules{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 500; i++ {
				if rng.Intn(4) == 0 {
					target := fmt.Sprintf("/reprice?id=%d&price=%d", 1+rng.Intn(12), rng.Intn(1000))
					get(t, w, target)
					continue
				}
				target := fmt.Sprintf("/list?cat=%d", rng.Intn(3))
				got, _ := get(t, w, target)
				want, _ := get(t, oracle, target)
				if got.Body.String() != want.Body.String() {
					t.Fatalf("iteration %d: stale page served for %s under %v", i, target, strategy)
				}
			}
		})
	}
}

// TestKeyCookiesRule: when a rule names session cookies, requests differing
// only in those cookies get distinct cache entries (§4.3 cookie problem).
func TestKeyCookiesRule(t *testing.T) {
	db := newItemsDB(t)
	engine, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(db, engine)
	cookiePage := []servlet.HandlerInfo{{
		Name: "Greet", Path: "/greet",
		Fn: func(w http.ResponseWriter, r *http.Request) {
			user := "anonymous"
			if ck, err := r.Cookie("user"); err == nil {
				user = ck.Value
			}
			rows, err := conn.Query(r.Context(), "SELECT COUNT(*) FROM items")
			if err != nil {
				servlet.ServerError(w, err)
				return
			}
			servlet.WriteHTML(w, "hello "+user+" items="+rows.Str(0, 0))
		},
	}}
	w, err := New(cookiePage, c, Rules{KeyCookies: []string{"user"}})
	if err != nil {
		t.Fatal(err)
	}
	fetch := func(user string) (string, string) {
		req := httptest.NewRequest(http.MethodGet, "/greet", nil)
		if user != "" {
			req.AddCookie(&http.Cookie{Name: "user", Value: user})
		}
		rr := httptest.NewRecorder()
		w.ServeHTTP(rr, req)
		return rr.Body.String(), rr.Header().Get(HeaderOutcome)
	}
	aliceBody, out := fetch("alice")
	if out != string(OutcomeMiss) {
		t.Fatalf("alice first: %s", out)
	}
	bobBody, out := fetch("bob")
	if out != string(OutcomeMiss) {
		t.Fatalf("bob must not hit alice's page: %s", out)
	}
	if aliceBody == bobBody {
		t.Fatal("cookie-distinct pages collided")
	}
	if _, out := fetch("alice"); out != string(OutcomeHit) {
		t.Fatalf("alice second: %s", out)
	}
	if _, out := fetch(""); out != string(OutcomeMiss) {
		t.Fatalf("anonymous must have its own entry: %s", out)
	}
}
