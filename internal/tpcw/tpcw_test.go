package tpcw

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/memdb"
	"autowebcache/internal/weave"
)

func smallScale() Scale {
	return Scale{
		Items: 60, Authors: 15, Customers: 20, Orders: 30,
		LinesPerOrder: 3, Countries: 5, Seed: 3,
	}
}

func loadApp(t *testing.T) (*memdb.DB, *App) {
	t.Helper()
	db := memdb.New()
	last, err := Load(db, smallScale())
	if err != nil {
		t.Fatal(err)
	}
	return db, New(db, smallScale(), last)
}

func plainMux(t *testing.T, app *App) *http.ServeMux {
	t.Helper()
	mux := http.NewServeMux()
	for _, h := range app.Handlers() {
		mux.Handle(h.Path, h.Fn)
	}
	return mux
}

func do(t *testing.T, h http.Handler, target string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func TestLoadPopulatesTables(t *testing.T) {
	db, _ := loadApp(t)
	wants := map[string]int{
		"country": 5, "author": 15, "item": 60, "customer": 20,
		"address": 20, "orders": 30, "cc_xacts": 30,
	}
	for table, want := range wants {
		if got := db.TableLen(table); got != want {
			t.Errorf("%s: %d rows, want %d", table, got, want)
		}
	}
	if db.TableLen("order_line") < 30 {
		t.Error("too few order lines")
	}
}

func TestHandlersCount(t *testing.T) {
	_, app := loadApp(t)
	hs := app.Handlers()
	if len(hs) != 15 {
		t.Fatalf("TPC-W defines 14 interactions plus RelatedBooks, got %d", len(hs))
	}
	writes := 0
	for _, h := range hs {
		if h.Write {
			writes++
		}
	}
	if writes != 5 {
		t.Fatalf("write interactions: %d, want 5", writes)
	}
}

func TestEveryHandlerServes(t *testing.T) {
	_, app := loadApp(t)
	mux := plainMux(t, app)
	targets := map[string]string{
		"HomeInteraction":      "/home?c_id=1",
		"NewProducts":          "/newProducts?subject=ARTS",
		"BestSellers":          "/bestSellers?subject=ARTS",
		"ProductDetail":        "/productDetail?i_id=1",
		"SearchRequest":        "/searchRequest",
		"ExecuteSearch":        "/executeSearch?type=title&search=Book+1",
		"OrderInquiry":         "/orderInquiry",
		"OrderDisplay":         "/orderDisplay?c_id=1",
		"AdminRequest":         "/adminRequest?i_id=1",
		"RelatedBooks":         "/relatedBooks?i_id=1",
		"ShoppingCart":         "/shoppingCart?sc_id=100001&i_id=1&qty=2",
		"CustomerRegistration": "/customerRegistration?uname=fresh",
		"BuyRequest":           "/buyRequest?c_id=1&sc_id=100001",
		"BuyConfirm":           "/buyConfirm?c_id=1&sc_id=100001",
		"AdminConfirm":         "/adminConfirm?i_id=1&cost=42",
	}
	if len(targets) != 15 {
		t.Fatalf("test covers %d interactions", len(targets))
	}
	// Order matters for cart flows: exercise ShoppingCart first.
	for _, name := range []string{"ShoppingCart", "BuyRequest", "BuyConfirm"} {
		rr := do(t, mux, targets[name])
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, rr.Code, rr.Body.String())
		}
	}
	for name, target := range targets {
		rr := do(t, mux, target)
		if rr.Code != http.StatusOK {
			t.Errorf("%s (%s): status %d: %s", name, target, rr.Code, rr.Body.String())
		}
	}
}

func TestHandlersValidateInput(t *testing.T) {
	_, app := loadApp(t)
	mux := plainMux(t, app)
	bad := []string{
		"/productDetail?i_id=9999",
		"/adminRequest?i_id=9999",
		"/shoppingCart?i_id=1",
		"/customerRegistration",
		"/buyRequest?c_id=1",
		"/buyConfirm?sc_id=5",
		"/adminConfirm?cost=9",
	}
	for _, target := range bad {
		if rr := do(t, mux, target); rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", target, rr.Code)
		}
	}
}

func TestHomeHasRandomBanner(t *testing.T) {
	_, app := loadApp(t)
	mux := plainMux(t, app)
	a := do(t, mux, "/home?c_id=1").Body.String()
	b := do(t, mux, "/home?c_id=1").Body.String()
	if a == b {
		t.Fatal("Home should embed hidden state (random ad banner); identical pages returned")
	}
}

func TestBuyConfirmMovesCartToOrder(t *testing.T) {
	db, app := loadApp(t)
	mux := plainMux(t, app)
	do(t, mux, "/shoppingCart?sc_id=100007&i_id=3&qty=2")
	do(t, mux, "/shoppingCart?sc_id=100007&i_id=5&qty=1")
	ordersBefore := db.TableLen("orders")
	stockBefore, err := db.Query(t.Context(), "SELECT i_stock FROM item WHERE i_id = 3")
	if err != nil {
		t.Fatal(err)
	}
	rr := do(t, mux, "/buyConfirm?c_id=2&sc_id=100007")
	if rr.Code != 200 {
		t.Fatalf("buyConfirm: %d %s", rr.Code, rr.Body.String())
	}
	if db.TableLen("orders") != ordersBefore+1 {
		t.Fatal("order not created")
	}
	lines, err := db.Query(t.Context(), "SELECT COUNT(*) FROM shopping_cart_line WHERE scl_sc_id = ?", 100007)
	if err != nil {
		t.Fatal(err)
	}
	if lines.Int(0, 0) != 0 {
		t.Fatal("cart not emptied")
	}
	stockAfter, err := db.Query(t.Context(), "SELECT i_stock FROM item WHERE i_id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if stockAfter.Int(0, 0) != stockBefore.Int(0, 0)-2 {
		t.Fatalf("stock: %d -> %d", stockBefore.Int(0, 0), stockAfter.Int(0, 0))
	}
}

func TestBestSellersAggregates(t *testing.T) {
	_, app := loadApp(t)
	mux := plainMux(t, app)
	rr := do(t, mux, "/bestSellers?subject="+Subjects[0])
	if rr.Code != 200 {
		t.Fatalf("bestSellers: %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "<table") {
		t.Fatal("no table in best sellers page")
	}
}

func TestMixProperties(t *testing.T) {
	s := smallScale()
	mix := ShoppingMix(s)
	if len(mix) != 15 {
		t.Fatalf("shopping mix entries: %d", len(mix))
	}
	wf := mix.WriteFraction()
	if wf < 0.15 || wf > 0.25 {
		t.Fatalf("shopping mix write fraction %.3f outside ~20%%", wf)
	}
	bwf := BrowsingMix(s).WriteFraction()
	if bwf > 0.06 {
		t.Fatalf("browsing mix write fraction %.3f too high", bwf)
	}
	_, app := loadApp(t)
	paths := map[string]bool{}
	names := map[string]bool{}
	for _, h := range app.Handlers() {
		paths[h.Path] = true
		names[h.Name] = true
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		name, target := mix.Request(rng, i%10)
		if !names[name] {
			t.Fatalf("unknown interaction %s", name)
		}
		path := target
		if idx := strings.IndexByte(target, '?'); idx >= 0 {
			path = target[:idx]
		}
		if !paths[path] {
			t.Fatalf("unknown path %s", path)
		}
	}
}

func TestWeaveRules(t *testing.T) {
	r := WeaveRules(0)
	if len(r.Uncacheable) != 2 || r.Semantic != nil {
		t.Fatalf("rules: %+v", r)
	}
	r = WeaveRules(30 * time.Second)
	if r.Semantic["BestSellers"] != 30*time.Second {
		t.Fatalf("rules: %+v", r)
	}
}

// TestRelatedBooksTemplateSpansOrderLines pins the analyzability of the
// previously-uncacheable RelatedBooks shape: a JOIN plus nested IN-subquery
// whose dependency set must span item, author and order_line.
func TestRelatedBooksTemplateSpansOrderLines(t *testing.T) {
	db, _ := loadApp(t)
	const sql = "SELECT item.i_id, item.i_title, author.a_fname, author.a_lname, item.i_cost FROM item JOIN author ON item.i_a_id = author.a_id WHERE item.i_id IN (SELECT ol_i_id FROM order_line WHERE ol_o_id IN (SELECT ol_o_id FROM order_line WHERE ol_i_id = ?)) AND item.i_id <> ? ORDER BY item.i_id ASC LIMIT ?"
	info, err := analysis.AnalyzeTemplate(sql, db)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	got := map[string]bool{}
	for _, tbl := range info.Tables {
		got[tbl] = true
	}
	for _, want := range []string{"item", "author", "order_line"} {
		if !got[want] {
			t.Errorf("missing dependency table %s (have %v)", want, info.Tables)
		}
	}
	for _, col := range []string{"ol_i_id", "ol_o_id"} {
		if !info.ReadCols["order_line"][col] {
			t.Errorf("order_line.%s not a read dependency: %v", col, info.ReadCols)
		}
	}
}

// TestRelatedBooksInvalidatesOnNewOrderLine caches the RelatedBooks page,
// then places an order containing the book: the new order_line rows are
// reachable only through the page's IN-subqueries, yet must invalidate it.
func TestRelatedBooksInvalidatesOnNewOrderLine(t *testing.T) {
	db := memdb.New()
	s := smallScale()
	last, err := Load(db, s)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	app := New(weave.NewConn(db, engine), s, last)
	woven, err := weave.New(app.Handlers(), c, WeaveRules(0))
	if err != nil {
		t.Fatal(err)
	}
	outcome := func(target string) string {
		rr := do(t, woven, target)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rr.Code, rr.Body.String())
		}
		return rr.Header().Get("X-Autowebcache")
	}
	if out := outcome("/relatedBooks?i_id=1"); out != "miss" {
		t.Fatalf("first fetch: %s", out)
	}
	if out := outcome("/relatedBooks?i_id=1"); out != "hit" {
		t.Fatalf("second fetch: %s", out)
	}
	// Buy items 1 and 5 together; the BuyConfirm write inserts the order
	// lines that link them.
	if out := outcome("/shoppingCart?sc_id=100900&i_id=1&qty=1"); out != "write" {
		t.Fatalf("cart add: %s", out)
	}
	if out := outcome("/shoppingCart?sc_id=100900&i_id=5&qty=1"); out != "write" {
		t.Fatalf("cart add: %s", out)
	}
	if out := outcome("/buyConfirm?c_id=1&sc_id=100900"); out != "write" {
		t.Fatalf("buy confirm: %s", out)
	}
	if out := outcome("/relatedBooks?i_id=1"); out != "miss" {
		t.Fatalf("post-order fetch: %s (page not invalidated)", out)
	}
	// The regenerated page must list the book bought together with item 1.
	rr := do(t, woven, "/relatedBooks?i_id=1")
	if !strings.Contains(rr.Body.String(), "Book 5 ") {
		t.Fatal("regenerated page missing the newly co-ordered book")
	}
}

// TestConsistencyUnderShoppingMix checks the cached application against an
// uncached oracle under the shopping mix, for every invalidation strategy.
// Uncacheable interactions (random banners) are skipped: their content is
// intentionally nondeterministic.
func TestConsistencyUnderShoppingMix(t *testing.T) {
	for _, strategy := range []analysis.Strategy{
		analysis.StrategyColumnOnly, analysis.StrategyWhereMatch, analysis.StrategyExtraQuery,
	} {
		t.Run(strategy.String(), func(t *testing.T) {
			testConsistencyUnderShoppingMix(t, strategy)
		})
	}
}

func testConsistencyUnderShoppingMix(t *testing.T, strategy analysis.Strategy) {
	db := memdb.New()
	s := smallScale()
	last, err := Load(db, s)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := analysis.NewEngine(strategy, db)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	conn := weave.NewConn(db, engine)
	app := New(conn, s, last)
	woven, err := weave.New(app.Handlers(), c, WeaveRules(0))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := weave.New(app.Handlers(), nil, WeaveRules(0))
	if err != nil {
		t.Fatal(err)
	}
	writes := writeNames()
	skip := map[string]bool{"HomeInteraction": true, "SearchRequest": true}
	mix := ShoppingMix(s)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 600; i++ {
		name, target := mix.Request(rng, i%8)
		rr := do(t, woven, target)
		if writes[name] || skip[name] {
			continue
		}
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d", target, rr.Code)
		}
		orr := do(t, oracle, target)
		if rr.Body.String() != orr.Body.String() {
			t.Fatalf("iteration %d: stale %s page for %s", i, name, target)
		}
	}
	if st := c.Snapshot(); st.Hits == 0 {
		t.Fatal("no cache hits; test not meaningful")
	}
}
