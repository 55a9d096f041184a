package weave

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/memdb"
	"autowebcache/internal/servlet"
)

// fragApp is a fragmented two-table page plus writes that touch exactly one
// table each:
//
//	/page?cat=C&session=S
//	  fragment "items" (vary cat)  <- items WHERE category = C
//	  hole                         <- echoes session (personalised)
//	  fragment "notes" (vary cat)  <- notes WHERE category = C
//	/reprice  (write)              -> UPDATE items
//	/addnote  (write)              -> INSERT INTO notes
func fragApp(t *testing.T, conn memdb.Conn) []servlet.HandlerInfo {
	t.Helper()
	itemsFrag := servlet.Segment{ID: "items", Vary: []string{"cat"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		cat := servlet.ParamInt(r, "cat", 0)
		rows, err := conn.Query(r.Context(), "SELECT id, name, price FROM items WHERE category = ? ORDER BY id ASC", cat)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		servlet.WriteFragment(w, "<div id=items>")
		servlet.NewPartial().Table([]string{"id", "name", "price"}, rows).WriteFragment(w)
		servlet.WriteFragment(w, "</div>")
	}}
	hole := servlet.Segment{Gen: func(w http.ResponseWriter, r *http.Request) {
		servlet.WriteFragment(w, fmt.Sprintf("<div id=session>%d</div>", servlet.ParamInt(r, "session", 0)))
	}}
	notesFrag := servlet.Segment{ID: "notes", Vary: []string{"cat"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		cat := servlet.ParamInt(r, "cat", 0)
		rows, err := conn.Query(r.Context(), "SELECT COUNT(*) FROM notes WHERE category = ?", cat)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		servlet.WriteFragment(w, fmt.Sprintf("<div id=notes>%d</div>", rows.Int(0, 0)))
	}}
	reprice := func(w http.ResponseWriter, r *http.Request) {
		id := servlet.ParamInt(r, "id", 0)
		price := servlet.ParamInt(r, "price", 0)
		if _, err := conn.Exec(r.Context(), "UPDATE items SET price = ? WHERE id = ?", price, id); err != nil {
			servlet.ServerError(w, err)
			return
		}
		servlet.WriteHTML(w, "ok")
	}
	addnote := func(w http.ResponseWriter, r *http.Request) {
		cat := servlet.ParamInt(r, "cat", 0)
		if _, err := conn.Exec(r.Context(), "INSERT INTO notes (category, text) VALUES (?, ?)", cat, "n"); err != nil {
			servlet.ServerError(w, err)
			return
		}
		servlet.WriteHTML(w, "ok")
	}
	return []servlet.HandlerInfo{
		{Name: "Page", Path: "/page", Fragments: []servlet.Segment{itemsFrag, hole, notesFrag}},
		{Name: "Reprice", Path: "/reprice", Write: true, Fn: reprice},
		{Name: "AddNote", Path: "/addnote", Write: true, Fn: addnote},
	}
}

func newFragDB(t *testing.T) *memdb.DB {
	t.Helper()
	db := newItemsDB(t)
	db.MustCreateTable(memdb.TableSpec{
		Name: "notes",
		Columns: []memdb.Column{
			{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
			{Name: "category", Type: memdb.TypeInt},
			{Name: "text", Type: memdb.TypeString},
		},
		Indexed: []string{"category"},
	})
	return db
}

func buildFragWoven(t *testing.T, db *memdb.DB) (*Woven, *cache.Cache) {
	t.Helper()
	engine, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(db, engine)
	w, err := New(fragApp(t, conn), c, Rules{Fragments: true})
	if err != nil {
		t.Fatal(err)
	}
	return w, c
}

func TestFragmentAssemblyMissThenHit(t *testing.T) {
	w, c := buildFragWoven(t, newFragDB(t))

	rr, outcome := get(t, w, "/page?cat=1&session=7")
	if outcome != string(OutcomeMiss) {
		t.Fatalf("cold request outcome %q, want miss", outcome)
	}
	body1 := rr.Body.String()
	if !strings.Contains(body1, "<div id=session>7</div>") {
		t.Fatalf("missing personalised hole: %s", body1)
	}
	if c.Len() != 2 {
		t.Fatalf("expected 2 cached fragments, have %d", c.Len())
	}

	// A different session shares every fragment: outcome fragment-hit, only
	// the hole differs.
	rr2, outcome2 := get(t, w, "/page?cat=1&session=8")
	if outcome2 != string(OutcomeFragmentHit) {
		t.Fatalf("second session outcome %q, want fragment-hit", outcome2)
	}
	body2 := rr2.Body.String()
	if !strings.Contains(body2, "<div id=session>8</div>") {
		t.Fatalf("hole not regenerated: %s", body2)
	}
	if strings.Replace(body1, "<div id=session>7</div>", "<div id=session>8</div>", 1) != body2 {
		t.Fatalf("fragments differ across sessions:\n%s\n%s", body1, body2)
	}
	if got := rr2.Header().Get(HeaderFragments); got != "2/2" {
		t.Fatalf("fragment header %q, want 2/2", got)
	}
	if rr2.Header().Get(HeaderCachedBytes) == "" || rr2.Header().Get(HeaderCachedBytes) == "0" {
		t.Fatalf("cached-bytes header %q, want > 0", rr2.Header().Get(HeaderCachedBytes))
	}

	st := w.Stats().Totals()
	if st.FragmentHits != 1 || st.FragmentsServed != 2 || st.FragmentsTotal != 4 {
		t.Fatalf("fragment stats %+v", st)
	}
	if st.BytesCached == 0 || st.BytesCached >= st.BytesOut {
		t.Fatalf("byte split BytesCached=%d BytesOut=%d", st.BytesCached, st.BytesOut)
	}
}

func TestFragmentModeMatchesWholePageBytes(t *testing.T) {
	db := newFragDB(t)
	frag, _ := buildFragWoven(t, db)

	// The same handlers woven without fragment mode (whole-page advice over
	// the composed form) must serve byte-identical pages.
	engine, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cache.New(cache.Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := New(fragApp(t, NewConn(db, engine)), c2, Rules{})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"/page?cat=1&session=7", "/page?cat=2&session=1"} {
		a, _ := get(t, frag, target)
		b, _ := get(t, whole, target)
		if a.Body.String() != b.Body.String() {
			t.Fatalf("%s: fragment and whole-page bodies differ:\n%s\n%s", target, a.Body.String(), b.Body.String())
		}
	}
}

// TestFragmentInvalidationGranularity is the tentpole's consistency story:
// a write removes exactly the fragments whose read templates intersect it —
// the rest of the page keeps serving from the cache.
func TestFragmentInvalidationGranularity(t *testing.T) {
	w, c := buildFragWoven(t, newFragDB(t))

	get(t, w, "/page?cat=1&session=7") // prime both fragments
	itemsKey := "/page#items?cat=1"
	notesKey := "/page#notes?cat=1"
	if !c.Contains(itemsKey) || !c.Contains(notesKey) {
		t.Fatalf("fragment keys not cached: items=%v notes=%v", c.Contains(itemsKey), c.Contains(notesKey))
	}

	// A notes write must remove the notes fragment and ONLY it. (Item 5 is
	// category 1 per newItemsDB's (id-1)%3 layout; notes insert targets
	// cat 1.)
	if rr, _ := get(t, w, "/addnote?cat=1"); rr.Code != http.StatusOK {
		t.Fatalf("addnote failed: %d", rr.Code)
	}
	if !c.Contains(itemsKey) {
		t.Fatal("items fragment was invalidated by a notes write")
	}
	if c.Contains(notesKey) {
		t.Fatal("notes fragment survived a notes write")
	}

	// The next request reassembles: items from cache, notes regenerated.
	rr, outcome := get(t, w, "/page?cat=1&session=9")
	if outcome != string(OutcomeAssembled) {
		t.Fatalf("post-write outcome %q, want assembled", outcome)
	}
	if !strings.Contains(rr.Body.String(), "<div id=notes>1</div>") {
		t.Fatalf("stale notes fragment: %s", rr.Body.String())
	}
	if got := rr.Header().Get(HeaderFragments); got != "1/2" {
		t.Fatalf("fragment header %q, want 1/2", got)
	}

	// An items write on a cat-1 item removes the items fragment, not notes.
	if rr, _ := get(t, w, "/reprice?id=5&price=77"); rr.Code != http.StatusOK {
		t.Fatalf("reprice failed: %d", rr.Code)
	}
	if c.Contains(itemsKey) {
		t.Fatal("items fragment survived an items write")
	}
	if !c.Contains(notesKey) {
		t.Fatal("notes fragment was invalidated by an items write")
	}
	rr, _ = get(t, w, "/page?cat=1&session=9")
	if !strings.Contains(rr.Body.String(), "77") {
		t.Fatalf("stale items fragment after reprice: %s", rr.Body.String())
	}
}

func TestFragmentErrorAbortsAssembly(t *testing.T) {
	w, _ := buildFragWoven(t, newFragDB(t))
	rr, outcome := get(t, w, "/page?cat=1&session=7")
	if rr.Code != http.StatusOK || outcome != string(OutcomeMiss) {
		t.Fatalf("sanity: %d %q", rr.Code, outcome)
	}

	// A fragmented handler whose first fragment client-errors serves the
	// error alone.
	eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	bad := servlet.Segment{ID: "bad", Gen: func(w http.ResponseWriter, r *http.Request) {
		servlet.ClientError(w, "nope")
	}}
	tail := servlet.Segment{ID: "tail", Gen: func(w http.ResponseWriter, r *http.Request) {
		servlet.WriteFragment(w, "tail")
	}}
	w2, err := New([]servlet.HandlerInfo{
		{Name: "Bad", Path: "/bad", Fragments: []servlet.Segment{bad, tail}},
	}, c, Rules{Fragments: true})
	if err != nil {
		t.Fatal(err)
	}
	rr2, outcome2 := get(t, w2, "/bad")
	if rr2.Code != http.StatusBadRequest || outcome2 != string(OutcomeError) {
		t.Fatalf("error assembly: code %d outcome %q", rr2.Code, outcome2)
	}
	if strings.Contains(rr2.Body.String(), "tail") {
		t.Fatalf("assembly continued past the error: %s", rr2.Body.String())
	}
	if c.Len() != 0 {
		t.Fatalf("error fragment cached: %d entries", c.Len())
	}
}

func TestFragmentValidation(t *testing.T) {
	eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	gen := func(w http.ResponseWriter, r *http.Request) {}
	cases := []servlet.HandlerInfo{
		{Name: "W", Path: "/w", Write: true, Fn: gen,
			Fragments: []servlet.Segment{{ID: "a", Gen: gen}}},
		{Name: "NoGen", Path: "/n",
			Fragments: []servlet.Segment{{ID: "a"}}},
		{Name: "Dup", Path: "/d",
			Fragments: []servlet.Segment{{ID: "a", Gen: gen}, {ID: "a", Gen: gen}}},
	}
	for _, h := range cases {
		if _, err := New([]servlet.HandlerInfo{h}, c, Rules{Fragments: true}); err == nil {
			t.Errorf("%s: expected validation error", h.Name)
		}
	}
	// Segments without Fn are valid — the composition is synthesised — and
	// an all-hole page degrades to uncacheable assembly.
	holes := []servlet.Segment{{Gen: gen}}
	w, err := New([]servlet.HandlerInfo{{Name: "H", Path: "/h", Fragments: holes}}, c, Rules{Fragments: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, outcome := get(t, w, "/h"); outcome != string(OutcomeUncacheable) {
		t.Fatalf("all-hole page outcome %q, want uncacheable", outcome)
	}
}

// TestFragmentSingleFlight: a thundering herd on one cold fragmented page
// runs each fragment's generator exactly once.
func TestFragmentSingleFlight(t *testing.T) {
	eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	var gens atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	slow := servlet.Segment{ID: "slow", Gen: func(w http.ResponseWriter, r *http.Request) {
		gens.Add(1)
		once.Do(func() { close(started) })
		<-release
		servlet.WriteFragment(w, "slow")
	}}
	woven, err := New([]servlet.HandlerInfo{
		{Name: "S", Path: "/s", Fragments: []servlet.Segment{slow}},
	}, c, Rules{Fragments: true})
	if err != nil {
		t.Fatal(err)
	}
	const herd = 8
	var wg sync.WaitGroup
	outcomes := make([]string, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rr, outcome := get(t, woven, "/s")
			_ = rr
			outcomes[i] = outcome
		}(i)
	}
	<-started
	close(release)
	wg.Wait()
	if n := gens.Load(); n != 1 {
		t.Fatalf("generator ran %d times for %d concurrent requests", n, herd)
	}
	misses := 0
	for _, o := range outcomes {
		if o == string(OutcomeMiss) {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("want exactly 1 miss outcome, got %d (%v)", misses, outcomes)
	}
}

// TestFragmentFollowerObservesInvalidation is the satellite regression test
// for the interleaving the epoch guard closes: a follower that arrives
// during a fragment assembly must observe post-invalidation state. The
// leader reads price v1, a write to the same row completes (its sweep finds
// nothing — the fragment is not inserted yet), then the leader inserts the
// stale fragment. Without the guard, the follower would be served v1 AFTER
// the write's InvalidateWrite returned; with it, the insert is discarded
// and the follower regenerates from v2.
func TestFragmentFollowerObservesInvalidation(t *testing.T) {
	db := newFragDB(t)
	engine, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(db, engine)

	inGen := make(chan struct{})
	release := make(chan struct{})
	var genCount atomic.Int64
	price := servlet.Segment{ID: "price", Vary: []string{"id"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		id := servlet.ParamInt(r, "id", 0)
		rows, err := conn.Query(r.Context(), "SELECT price FROM items WHERE id = ?", id)
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		if genCount.Add(1) == 1 {
			close(inGen) // signal: first generation holds price v1
			<-release    // block until the write has fully completed
		}
		servlet.WriteFragment(w, fmt.Sprintf("price=%d", rows.Int(0, 0)))
	}}
	reprice := func(w http.ResponseWriter, r *http.Request) {
		if _, err := conn.Exec(r.Context(), "UPDATE items SET price = ? WHERE id = ?",
			servlet.ParamInt(r, "price", 0), servlet.ParamInt(r, "id", 0)); err != nil {
			servlet.ServerError(w, err)
			return
		}
		servlet.WriteHTML(w, "ok")
	}
	woven, err := New([]servlet.HandlerInfo{
		{Name: "Price", Path: "/price", Fragments: []servlet.Segment{price}},
		{Name: "Reprice", Path: "/reprice", Write: true, Fn: reprice},
	}, c, Rules{Fragments: true})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	leaderBody := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rr, _ := get(t, woven, "/price?id=1")
		leaderBody <- rr.Body.String()
	}()
	<-inGen // the leader has read price v1 (10) and is parked

	// The follower arrives during the assembly and waits on the flight.
	followerBody := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rr, _ := get(t, woven, "/price?id=1")
		followerBody <- rr.Body.String()
	}()

	// The write completes: after its response, §3.2 says no lookup may
	// serve a price-dependent page predating it.
	if rr, _ := get(t, woven, "/reprice?id=1&price=99"); rr.Code != http.StatusOK {
		t.Fatalf("reprice failed: %d", rr.Code)
	}
	close(release)
	wg.Wait()

	if got := <-leaderBody; !strings.Contains(got, "price=10") {
		t.Fatalf("leader served %q, expected its own (pre-write) generation", got)
	}
	if got := <-followerBody; !strings.Contains(got, "price=99") {
		t.Fatalf("follower served %q after InvalidateWrite returned, want price=99", got)
	}
	if woven.Snapshot().FlightAborts == 0 {
		t.Fatal("expected the epoch guard to discard the stale insert")
	}
	// The stale fragment must not be servable now.
	if pg, ok := c.Lookup("/price#price?id=1"); ok && strings.Contains(string(pg.Body), "price=10") {
		t.Fatalf("stale fragment still cached: %s", pg.Body)
	}
}

// TestFragmentUnrelatedWriteDoesNotAbort: the guard is precise — a write
// that cannot intersect the fragment's dependencies leaves the flight
// shareable (followers coalesce; no discard).
func TestFragmentUnrelatedWriteDoesNotAbort(t *testing.T) {
	db := newFragDB(t)
	engine, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(db, engine)

	inGen := make(chan struct{})
	release := make(chan struct{})
	var genCount atomic.Int64
	price := servlet.Segment{ID: "price", Vary: []string{"id"}, Gen: func(w http.ResponseWriter, r *http.Request) {
		rows, err := conn.Query(r.Context(), "SELECT price FROM items WHERE id = ?", servlet.ParamInt(r, "id", 0))
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		if genCount.Add(1) == 1 {
			close(inGen)
			<-release
		}
		servlet.WriteFragment(w, fmt.Sprintf("price=%d", rows.Int(0, 0)))
	}}
	addnote := func(w http.ResponseWriter, r *http.Request) {
		if _, err := conn.Exec(r.Context(), "INSERT INTO notes (category, text) VALUES (?, ?)", int64(1), "n"); err != nil {
			servlet.ServerError(w, err)
			return
		}
		servlet.WriteHTML(w, "ok")
	}
	woven, err := New([]servlet.HandlerInfo{
		{Name: "Price", Path: "/price", Fragments: []servlet.Segment{price}},
		{Name: "AddNote", Path: "/addnote", Write: true, Fn: addnote},
	}, c, Rules{Fragments: true})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		get(t, woven, "/price?id=1")
	}()
	<-inGen
	if rr, _ := get(t, woven, "/addnote"); rr.Code != http.StatusOK {
		t.Fatalf("addnote failed: %d", rr.Code)
	}
	close(release)
	wg.Wait()

	if woven.Snapshot().FlightAborts != 0 {
		t.Fatal("unrelated write aborted the flight; the stale guard should be precise")
	}
	if !c.Contains("/price#price?id=1") {
		t.Fatal("fragment discarded despite no intersecting write")
	}
}

// TestPageFollowerObservesInvalidation is the whole-page twin of the
// fragment regression: the epoch guard applies to page-level flights too.
func TestPageFollowerObservesInvalidation(t *testing.T) {
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

	inGen := make(chan struct{})
	release := make(chan struct{})
	var genCount atomic.Int64
	show := func(w http.ResponseWriter, r *http.Request) {
		rows, err := conn.Query(r.Context(), "SELECT price FROM items WHERE id = ?", servlet.ParamInt(r, "id", 0))
		if err != nil {
			servlet.ServerError(w, err)
			return
		}
		if genCount.Add(1) == 1 {
			close(inGen)
			<-release
		}
		servlet.WriteHTML(w, fmt.Sprintf("price=%d", rows.Int(0, 0)))
	}
	reprice := func(w http.ResponseWriter, r *http.Request) {
		if _, err := conn.Exec(r.Context(), "UPDATE items SET price = ? WHERE id = ?",
			servlet.ParamInt(r, "price", 0), servlet.ParamInt(r, "id", 0)); err != nil {
			servlet.ServerError(w, err)
			return
		}
		servlet.WriteHTML(w, "ok")
	}
	woven, err := New([]servlet.HandlerInfo{
		{Name: "Show", Path: "/show", Fn: show},
		{Name: "Reprice", Path: "/reprice", Write: true, Fn: reprice},
	}, c, Rules{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		get(t, woven, "/show?id=1")
	}()
	<-inGen
	followerBody := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rr, _ := get(t, woven, "/show?id=1")
		followerBody <- rr.Body.String()
	}()
	if rr, _ := get(t, woven, "/reprice?id=1&price=55"); rr.Code != http.StatusOK {
		t.Fatalf("reprice failed: %d", rr.Code)
	}
	close(release)
	wg.Wait()
	if got := <-followerBody; !strings.Contains(got, "price=55") {
		t.Fatalf("page follower served %q after InvalidateWrite returned, want price=55", got)
	}
	if woven.Snapshot().FlightAborts == 0 {
		t.Fatal("expected the epoch guard to discard the stale page insert")
	}
}

// TestFragmentKeyCookiesRule: Rules.KeyCookies are part of every page's
// identity (§4.3), so in fragment mode they must partition every fragment's
// cache key too — one user's cookie-keyed fragment must never be served to
// another.
func TestFragmentKeyCookiesRule(t *testing.T) {
	eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	frag := servlet.Segment{ID: "who", Gen: func(w http.ResponseWriter, r *http.Request) {
		sess := ""
		if ck, err := r.Cookie("sess"); err == nil {
			sess = ck.Value
		}
		servlet.WriteFragment(w, "sess="+sess)
	}}
	woven, err := New([]servlet.HandlerInfo{
		{Name: "Who", Path: "/who", Fragments: []servlet.Segment{frag}},
	}, c, Rules{Fragments: true, KeyCookies: []string{"sess"}})
	if err != nil {
		t.Fatal(err)
	}
	fetch := func(sess string) (string, string) {
		req := httptest.NewRequest(http.MethodGet, "/who", nil)
		req.AddCookie(&http.Cookie{Name: "sess", Value: sess})
		rr := httptest.NewRecorder()
		woven.ServeHTTP(rr, req)
		return rr.Body.String(), rr.Header().Get(HeaderOutcome)
	}
	if body, outcome := fetch("alice"); body != "sess=alice" || outcome != string(OutcomeMiss) {
		t.Fatalf("alice cold: %q %q", body, outcome)
	}
	// Bob must NOT be served alice's fragment: the rule cookie is part of
	// the fragment key, so this is a fresh miss with bob's own content.
	if body, outcome := fetch("bob"); body != "sess=bob" || outcome != string(OutcomeMiss) {
		t.Fatalf("bob must not share alice's cookie-keyed fragment: %q %q", body, outcome)
	}
	// Same cookie re-fetches ARE shared.
	if body, outcome := fetch("alice"); body != "sess=alice" || outcome != string(OutcomeFragmentHit) {
		t.Fatalf("alice warm: %q %q", body, outcome)
	}
	// The application's declared segment slice was not mutated.
	if len(frag.VaryCookies) != 0 {
		t.Fatalf("declared segment mutated: %v", frag.VaryCookies)
	}
}
