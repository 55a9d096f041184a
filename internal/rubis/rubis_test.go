package rubis

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/memdb"
	"autowebcache/internal/weave"
)

func smallScale() Scale {
	return Scale{
		Regions: 3, Categories: 5, Users: 20, Items: 40,
		BidsPerItem: 3, CommentsPerUser: 2, BuyNows: 10, Seed: 7,
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

func TestLoadPopulatesTables(t *testing.T) {
	db, _ := loadApp(t)
	wants := map[string]int{
		"regions": 3, "categories": 5, "users": 20, "items": 40, "buy_now": 10,
		"comments": 40, // 20 users x 2
	}
	for table, want := range wants {
		if got := db.TableLen(table); got != want {
			t.Errorf("%s: %d rows, want %d", table, got, want)
		}
	}
	if n := db.TableLen("bids"); n <= 0 {
		t.Errorf("bids: %d rows", n)
	}
}

func TestLoadValidatesScale(t *testing.T) {
	db := memdb.New()
	if _, err := Load(db, Scale{}); err == nil {
		t.Fatal("expected scale validation error")
	}
}

func TestBidSummaryConsistentWithBidsTable(t *testing.T) {
	db, _ := loadApp(t)
	ctx := t.Context()
	items, err := db.Query(ctx, "SELECT id, nb_of_bids, max_bid FROM items")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < items.Len(); i++ {
		id := items.Int(i, 0)
		agg, err := db.Query(ctx, "SELECT COUNT(*), MAX(bid) FROM bids WHERE item_id = ?", id)
		if err != nil {
			t.Fatal(err)
		}
		if agg.Int(0, 0) != items.Int(i, 1) {
			t.Fatalf("item %d: nb_of_bids %d, bids table %d", id, items.Int(i, 1), agg.Int(0, 0))
		}
		if agg.Int(0, 0) > 0 && agg.Float(0, 1) != items.Float(i, 2) {
			t.Fatalf("item %d: max_bid %v vs %v", id, items.Float(i, 2), agg.Float(0, 1))
		}
	}
}

func TestHandlersCount(t *testing.T) {
	_, app := loadApp(t)
	hs := app.Handlers()
	if len(hs) != 27 {
		t.Fatalf("RUBiS defines 26 interactions plus RegionStats, got %d", len(hs))
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

// serveAll exercises every interaction once against a plain (unwoven) mux.
func TestEveryHandlerServes(t *testing.T) {
	_, app := loadApp(t)
	mux := http.NewServeMux()
	for _, h := range app.Handlers() {
		mux.Handle(h.Path, h.Fn)
	}
	targets := map[string]string{
		"Home":                     "/",
		"Browse":                   "/browse",
		"Sell":                     "/sell",
		"RegisterUserForm":         "/registerUser",
		"PutBidAuth":               "/putBidAuth?itemId=1",
		"PutCommentAuth":           "/putCommentAuth?to=1",
		"BuyNowAuth":               "/buyNowAuth?itemId=1",
		"BrowseCategories":         "/browseCategories",
		"BrowseRegions":            "/browseRegions",
		"BrowseCategoriesByRegion": "/browseCategoriesByRegion?region=1",
		"RegionStats":              "/regionStats?region=1",
		"SearchItemsByCategory":    "/searchByCategory?category=1&page=0",
		"SearchItemsByRegion":      "/searchByRegion?region=1&category=1&page=0",
		"ViewItem":                 "/viewItem?itemId=1",
		"ViewUserInfo":             "/viewUser?userId=1",
		"ViewBidHistory":           "/viewBids?itemId=1",
		"AboutMe":                  "/aboutMe?userId=1",
		"PutBid":                   "/putBid?itemId=1",
		"BuyNow":                   "/buyNow?itemId=1&userId=1",
		"PutComment":               "/putComment?to=1&itemId=1",
		"SelectCategoryToSellItem": "/selectCategory",
		"SellItemForm":             "/sellItemForm?category=1",
		"StoreBid":                 "/storeBid?userId=1&itemId=1&qty=1&bid=50",
		"StoreBuyNow":              "/storeBuyNow?userId=1&itemId=1&qty=1",
		"StoreComment":             "/storeComment?from=1&to=2&itemId=1&rating=3",
		"StoreRegisterUser":        "/storeRegisterUser?nickname=newbie&region=1",
		"StoreRegisterItem":        "/storeRegisterItem?name=Widget&userId=1&category=1&initialPrice=9&qty=1",
	}
	if len(targets) != 27 {
		t.Fatalf("test covers %d interactions", len(targets))
	}
	for name, target := range targets {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			t.Errorf("%s (%s): status %d: %s", name, target, rr.Code, rr.Body.String())
			continue
		}
		if !strings.Contains(rr.Body.String(), "<html>") {
			t.Errorf("%s: no HTML in response", name)
		}
	}
}

func TestHandlersValidateInput(t *testing.T) {
	_, app := loadApp(t)
	mux := http.NewServeMux()
	for _, h := range app.Handlers() {
		mux.Handle(h.Path, h.Fn)
	}
	bad := []string{
		"/viewItem?itemId=99999",
		"/viewUser?userId=99999",
		"/aboutMe?userId=99999",
		"/putBid?itemId=99999",
		"/buyNow?itemId=99999",
		"/putComment?to=99999&itemId=1",
		"/sellItemForm?category=999",
		"/storeBid?bid=1",          // missing ids
		"/storeComment?rating=1",   // missing ids
		"/storeRegisterUser",       // missing nickname
		"/storeRegisterItem?qty=1", // missing name/seller
	}
	for _, target := range bad {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, req)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", target, rr.Code)
		}
	}
}

func TestStoreBidUpdatesItem(t *testing.T) {
	db, app := loadApp(t)
	mux := http.NewServeMux()
	for _, h := range app.Handlers() {
		mux.Handle(h.Path, h.Fn)
	}
	before, err := db.Query(t.Context(), "SELECT nb_of_bids FROM items WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/storeBid?userId=1&itemId=1&qty=1&bid=5000", nil)
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, req)
	if rr.Code != 200 {
		t.Fatalf("storeBid: %d", rr.Code)
	}
	after, err := db.Query(t.Context(), "SELECT nb_of_bids, max_bid FROM items WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if after.Int(0, 0) != before.Int(0, 0)+1 {
		t.Fatalf("nb_of_bids: %d -> %d", before.Int(0, 0), after.Int(0, 0))
	}
	if after.Float(0, 1) != 5000 {
		t.Fatalf("max_bid: %v", after.Float(0, 1))
	}
}

func TestMixProperties(t *testing.T) {
	s := smallScale()
	mix := BiddingMix(s)
	if len(mix) != 27 {
		t.Fatalf("bidding mix entries: %d", len(mix))
	}
	wf := mix.WriteFraction()
	if wf < 0.12 || wf > 0.18 {
		t.Fatalf("write fraction %.3f outside ~15%%", wf)
	}
	browse := BrowsingMix(s)
	if browse.WriteFraction() != 0 {
		t.Fatal("browsing mix contains writes")
	}
	// Every mix entry must correspond to a registered handler path.
	_, app := loadApp(t)
	paths := map[string]bool{}
	names := map[string]bool{}
	for _, h := range app.Handlers() {
		paths[h.Path] = true
		names[h.Name] = true
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		name, target := mix.Request(rng, i%10)
		if !names[name] {
			t.Fatalf("mix produced unknown interaction %s", name)
		}
		path := target
		if idx := strings.IndexByte(target, '?'); idx >= 0 {
			path = target[:idx]
		}
		if !paths[path] {
			t.Fatalf("mix produced unknown path %s", path)
		}
	}
}

// TestOverRealHTTP serves the woven application over a real TCP listener
// and exercises the cache through the full net/http stack.
func TestOverRealHTTP(t *testing.T) {
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
	woven, err := weave.New(app.Handlers(), c, weave.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(woven)
	defer srv.Close()

	fetch := func(path string) (string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf strings.Builder
		if _, err := io.Copy(&buf, resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.String(), resp.Header.Get("X-Autowebcache")
	}
	b1, out1 := fetch("/viewItem?itemId=1")
	if out1 != "miss" {
		t.Fatalf("first fetch outcome: %s", out1)
	}
	b2, out2 := fetch("/viewItem?itemId=1")
	if out2 != "hit" || b1 != b2 {
		t.Fatalf("second fetch: outcome=%s identical=%v", out2, b1 == b2)
	}
	if _, out := fetch("/storeBid?userId=1&itemId=1&qty=1&bid=777"); out != "write" {
		t.Fatalf("write outcome: %s", out)
	}
	b3, out3 := fetch("/viewItem?itemId=1")
	if out3 != "miss" {
		t.Fatalf("post-write outcome: %s", out3)
	}
	if !strings.Contains(b3, "777") {
		t.Fatal("regenerated page missing new bid")
	}
}

// TestSubqueryTemplatesSpanInnerTables pins the analyzability of the two
// previously-uncacheable RUBiS query shapes (nested IN-subquery, GROUP-BY
// aggregate over an IN-subquery): each subquery's tables and read columns
// must join the template's dependency set, so writes to the inner tables
// invalidate the page exactly.
func TestSubqueryTemplatesSpanInnerTables(t *testing.T) {
	db, _ := loadApp(t)
	cases := []struct {
		sql    string
		tables []string
	}{
		{
			"SELECT id, name FROM categories WHERE id IN (SELECT category FROM items WHERE seller IN (SELECT id FROM users WHERE region = ?)) ORDER BY id ASC",
			[]string{"categories", "items", "users"},
		},
		{
			"SELECT category, COUNT(id) AS items, SUM(nb_of_bids) AS bids, AVG(initial_price) AS avg_price FROM items WHERE seller IN (SELECT id FROM users WHERE region = ?) GROUP BY category ORDER BY category ASC",
			[]string{"items", "users"},
		},
	}
	for _, tc := range cases {
		info, err := analysis.AnalyzeTemplate(tc.sql, db)
		if err != nil {
			t.Fatalf("analyze %q: %v", tc.sql, err)
		}
		got := map[string]bool{}
		for _, tbl := range info.Tables {
			got[tbl] = true
		}
		for _, want := range tc.tables {
			if !got[want] {
				t.Errorf("template %q: missing dependency table %s (have %v)", tc.sql, want, info.Tables)
			}
		}
		if !info.ReadCols["users"]["region"] {
			t.Errorf("template %q: users.region not a read dependency: %v", tc.sql, info.ReadCols)
		}
	}
}

// TestRegionPagesInvalidateOnInnerTableWrites drives the two subquery-backed
// pages through the woven cache: each must cache, and a write to a table
// reachable only through its IN-subquery must invalidate it.
func TestRegionPagesInvalidateOnInnerTableWrites(t *testing.T) {
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
	woven, err := weave.New(app.Handlers(), c, weave.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(target string) string {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		rr := httptest.NewRecorder()
		woven.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rr.Code, rr.Body.String())
		}
		return rr.Header().Get("X-Autowebcache")
	}

	// Nested IN-subquery: a new user in the region is visible only through
	// the innermost subquery (users), yet must invalidate the page.
	if out := get("/browseCategoriesByRegion?region=1"); out != "miss" {
		t.Fatalf("first fetch: %s", out)
	}
	if out := get("/browseCategoriesByRegion?region=1"); out != "hit" {
		t.Fatalf("second fetch: %s", out)
	}
	if out := get("/storeRegisterUser?nickname=sub-test&region=1"); out != "write" {
		t.Fatalf("register user: %s", out)
	}
	if out := get("/browseCategoriesByRegion?region=1"); out != "miss" {
		t.Fatalf("post-user-write fetch: %s (page not invalidated)", out)
	}

	// GROUP-BY aggregate over an IN-subquery: a new item shifts the
	// aggregates and must invalidate the page.
	if out := get("/regionStats?region=1"); out != "miss" {
		t.Fatalf("first stats fetch: %s", out)
	}
	if out := get("/regionStats?region=1"); out != "hit" {
		t.Fatalf("second stats fetch: %s", out)
	}
	if out := get("/storeRegisterItem?name=SubWidget&userId=1&category=1&initialPrice=9&qty=1"); out != "write" {
		t.Fatalf("register item: %s", out)
	}
	if out := get("/regionStats?region=1"); out != "miss" {
		t.Fatalf("post-item-write stats fetch: %s (page not invalidated)", out)
	}
}

func TestMixPickDistribution(t *testing.T) {
	mix := BiddingMix(smallScale())
	rng := rand.New(rand.NewSource(5))
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[mix.Pick(rng).Name]++
	}
	total := mix.TotalWeight()
	for _, e := range mix {
		got := float64(counts[e.Name]) / n
		want := float64(e.Weight) / float64(total)
		if got < want*0.7-0.005 || got > want*1.3+0.005 {
			t.Errorf("%s: observed %.4f, want ~%.4f", e.Name, got, want)
		}
	}
}

// TestConsistencyUnderBiddingMix drives the full RUBiS application through
// the woven cache and checks every read against an uncached oracle — the
// paper's strong-consistency claim, end to end, for every invalidation
// strategy.
func TestConsistencyUnderBiddingMix(t *testing.T) {
	for _, strategy := range []analysis.Strategy{
		analysis.StrategyColumnOnly, analysis.StrategyWhereMatch, analysis.StrategyExtraQuery,
	} {
		t.Run(strategy.String(), func(t *testing.T) {
			testConsistencyUnderBiddingMix(t, strategy)
		})
	}
}

func testConsistencyUnderBiddingMix(t *testing.T, strategy analysis.Strategy) {
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
	woven, err := weave.New(app.Handlers(), c, weave.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	// The oracle shares the same App instance (and virtual clock) but is
	// reached without the cache, so reads regenerate from current state.
	oracle, err := weave.New(app.Handlers(), nil, weave.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	writes := writeNames()
	mix := BiddingMix(s)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 600; i++ {
		name, target := mix.Request(rng, i%8)
		req := httptest.NewRequest(http.MethodGet, target, nil)
		rr := httptest.NewRecorder()
		woven.ServeHTTP(rr, req)
		if writes[name] {
			continue
		}
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d", target, rr.Code)
		}
		oreq := httptest.NewRequest(http.MethodGet, target, nil)
		orr := httptest.NewRecorder()
		oracle.ServeHTTP(orr, oreq)
		if rr.Body.String() != orr.Body.String() {
			t.Fatalf("iteration %d: stale %s page for %s", i, name, target)
		}
	}
	if st := c.Snapshot(); st.Hits == 0 {
		t.Fatal("workload produced no cache hits; test not meaningful")
	}
}
