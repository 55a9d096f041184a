package bench

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/memdb"
	"autowebcache/internal/rubis"
	"autowebcache/internal/weave"
)

// TestWindowDriveSparesIdenticalPages drives the woven RUBiS bidding mix —
// whole pages, AC-extraQuery, one sequential client over a fresh memdb —
// and checks two things on every request. A hit's body is what the uncached
// application renders at that moment. A miss of a page the cache held before
// is a regeneration, and one whose bytes equal those the sweep removed was a
// needless invalidation: the window rule (analysis.Window) must spare most
// of those on the search pages, whose LIMIT windows most bids and new items
// never reach. Before the rule the drive regenerated 1847 identical
// SearchItemsByRegion and 989 identical SearchItemsByCategory pages.
func TestWindowDriveSparesIdenticalPages(t *testing.T) {
	scale := rubis.DefaultScale()
	db := memdb.New()
	last, err := rubis.Load(db, scale)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	woven, err := weave.New(rubis.New(weave.NewConn(db, eng), scale, last).Handlers(), c, weave.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	plain := http.NewServeMux()
	for _, h := range rubis.New(db, scale, last).Handlers() {
		plain.HandleFunc(h.Path, h.Fn)
	}
	serve := func(h http.Handler, target string) *httptest.ResponseRecorder {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, target, nil))
		return rw
	}

	type counts struct{ hits, misses, regenerated, identical int }
	per := make(map[string]*counts)
	held := make(map[string][]byte) // target -> the body the cache took for it
	mix := rubis.BiddingMix(scale)
	rng := rand.New(rand.NewSource(5))
	const draws = 50000
	for i := 0; i < draws; i++ {
		e := mix.Pick(rng)
		target := e.Make(rng, i%4)
		got := serve(woven, target)
		n := per[e.Name]
		if n == nil {
			n = &counts{}
			per[e.Name] = n
		}
		switch got.Header().Get("X-Autowebcache") {
		case "hit":
			n.hits++
			want := serve(plain, target)
			if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("request %d: hit on %s serves a page the database no longer backs:\n got %q\nwant %q",
					i, target, got.Body.Bytes(), want.Body.Bytes())
			}
		case "miss":
			n.misses++
			if prev, ok := held[target]; ok {
				n.regenerated++
				if bytes.Equal(prev, got.Body.Bytes()) {
					n.identical++
				}
			}
			if got.Code == http.StatusOK {
				held[target] = bytes.Clone(got.Body.Bytes())
			}
		}
	}
	names := make([]string, 0, len(per))
	for name := range per {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := per[name]
		t.Logf("%-26s hits %6d  misses %6d  regenerated %6d  identical %6d", name, n.hits, n.misses, n.regenerated, n.identical)
	}
	st := c.Snapshot()
	t.Logf("window-spared instances %d, invalidations %d", st.WindowSpared, st.Invalidations)
	for name, before := range map[string]int{"SearchItemsByRegion": 1847, "SearchItemsByCategory": 989} {
		if got := per[name].identical; got > before/5 {
			t.Errorf("%s regenerated %d byte-identical pages; the window rule must spare at least 80%% of the %d before it", name, got, before)
		}
	}
}
