package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/memdb"
	"autowebcache/internal/servlet"
	"autowebcache/internal/weave"
)

// The resolve path: a miss on a key another node owns is one get frame
// carrying the request; the owner answers from its cache or runs the
// handler through its own flight, and the requester generates only when the
// owner could not answer. Every member of a resolve cluster shares one
// database (the deployment the paper assumes) and counts its handler runs,
// so "the handler ran once across the cluster" is a sum over members.

// rnode is one member of a resolve cluster.
type rnode struct {
	name  string
	cache *cache.Cache
	node  *Node
	woven *weave.Woven

	mu   sync.Mutex
	runs map[string]int // handler or segment name -> runs on this member

	// hold, when set, parks Stock runs on this member: each run sends on
	// entered and waits for release.
	hold *holdGate
	// sleep delays every Stock run on this member.
	sleep atomic.Int64
}

type holdGate struct {
	entered chan struct{}
	release chan struct{}
}

func (rn *rnode) ran(name string) {
	rn.mu.Lock()
	rn.runs[name]++
	rn.mu.Unlock()
}

// count returns how often name ran on this member.
func (rn *rnode) count(name string) int {
	rn.mu.Lock()
	defer rn.mu.Unlock()
	return rn.runs[name]
}

// totalRuns sums name's runs over every member.
func totalRuns(nodes []*rnode, name string) int {
	n := 0
	for _, rn := range nodes {
		n += rn.count(name)
	}
	return n
}

// waitForFollowers waits until n forwarded misses are parked in this
// process as followers of a flight — goroutines blocked in the select of
// resolveMiss, called from ResolvePeer.
func waitForFollowers(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, "(*Woven).ResolvePeer") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d forwarded misses joined a flight, want %d", parked, n)
		}
	}
}

// newResolveNode builds a member over db with the given rules; it joins no
// ring yet.
func newResolveNode(t *testing.T, name string, db *memdb.DB, cfg Config, rules weave.Rules) *rnode {
	t.Helper()
	eng, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: eng, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	conn := weave.NewConn(db, eng)
	rn := &rnode{name: name, cache: c, runs: map[string]int{}}
	units := func(w http.ResponseWriter, r *http.Request) (int64, bool) {
		rows, err := conn.Query(r.Context(), "SELECT units FROM stock WHERE product = ?", servlet.Param(r, "product"))
		if err != nil {
			servlet.ServerError(w, err)
			return 0, false
		}
		if rows.Len() == 0 {
			return -1, true
		}
		return rows.Int(0, 0), true
	}
	handlers := []servlet.HandlerInfo{
		{Name: "Stock", Path: "/stock", Fn: func(w http.ResponseWriter, r *http.Request) {
			rn.ran("Stock")
			if g := rn.hold; g != nil {
				g.entered <- struct{}{}
				<-g.release
			}
			time.Sleep(time.Duration(rn.sleep.Load()))
			if n, ok := units(w, r); ok {
				servlet.WriteHTML(w, fmt.Sprintf("<p>%s: %d units</p>", servlet.Param(r, "product"), n))
			}
		}},
		{Name: "Restock", Path: "/restock", Write: true, Fn: func(w http.ResponseWriter, r *http.Request) {
			if _, err := conn.Exec(r.Context(), "UPDATE stock SET units = ? WHERE product = ?",
				servlet.ParamInt(r, "units", 0), servlet.Param(r, "product")); err != nil {
				servlet.ServerError(w, err)
				return
			}
			servlet.WriteHTML(w, "ok")
		}},
		{Name: "Broken", Path: "/broken", Fn: func(w http.ResponseWriter, r *http.Request) {
			rn.ran("Broken")
			servlet.ServerError(w, fmt.Errorf("broken %s", servlet.Param(r, "product")))
		}},
		{Name: "Moved", Path: "/moved", Fn: func(w http.ResponseWriter, r *http.Request) {
			// A redirect whose headers are its meaning.
			rn.ran("Moved")
			http.SetCookie(w, &http.Cookie{Name: "seen", Value: servlet.Param(r, "product")})
			http.Redirect(w, r, "/stock?product="+servlet.Param(r, "product"), http.StatusFound)
		}},
		{Name: "Visit", Path: "/visit", Fn: func(w http.ResponseWriter, r *http.Request) {
			// A read interaction that writes: never cacheable, and running
			// it twice would count the visit twice.
			rn.ran("Visit")
			if _, err := conn.Exec(r.Context(), "UPDATE stock SET units = units + 1 WHERE product = ?",
				servlet.Param(r, "product")); err != nil {
				servlet.ServerError(w, err)
				return
			}
			servlet.WriteHTML(w, "visited")
		}},
		{Name: "Shelf", Path: "/shelf", Fragments: []servlet.Segment{
			{ID: "units", Vary: []string{"product"}, Gen: func(w http.ResponseWriter, r *http.Request) {
				rn.ran("ShelfUnits")
				if n, ok := units(w, r); ok {
					fmt.Fprintf(w, "<p>%d units</p>", n)
				}
			}},
			{Gen: func(w http.ResponseWriter, r *http.Request) {
				rn.ran("ShelfHole")
				fmt.Fprintf(w, "<p>served by %s</p>", name)
			}},
		}},
	}
	rules.Fragments = true
	rn.woven, err = weave.New(handlers, c, rules)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Listen = "127.0.0.1:0"
	cfg.Cache = c
	cfg.Generate = rn.woven.ResolvePeer
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	rn.node, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rn.node.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rn.node.Close() })
	rn.woven.SetRemote(rn.node)
	return rn
}

// newResolveCluster builds three members over one database and joins them.
func newResolveCluster(t *testing.T, cfg Config, rules ...weave.Rules) []*rnode {
	t.Helper()
	db := newStockDB(t)
	nodes := make([]*rnode, 3)
	for i := range nodes {
		var r weave.Rules
		if i < len(rules) {
			r = rules[i]
		}
		nodes[i] = newResolveNode(t, fmt.Sprintf("node%d", i), db, cfg, r)
	}
	for _, rn := range nodes {
		var peers []string
		for _, o := range nodes {
			if o != rn {
				peers = append(peers, o.node.Addr())
			}
		}
		rn.node.SetPeers(peers)
	}
	return nodes
}

// serve issues one GET against a member and returns status, body and
// outcome.
func (rn *rnode) serve(target string) (int, string, string) {
	rr := rn.record(target)
	return rr.Code, rr.Body.String(), rr.Header().Get(weave.HeaderOutcome)
}

// record issues one GET against a member and returns the whole response.
func (rn *rnode) record(target string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	rn.woven.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil))
	return rr
}

// get is serve for a request that must succeed.
func (rn *rnode) get(t *testing.T, target string) (string, string) {
	t.Helper()
	code, body, outcome := rn.serve(target)
	if code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", rn.name, target, code, body)
	}
	return body, outcome
}

// roles picks, for a key pattern over the 16 products, a product whose key
// the first member does not own, and returns the owner and the other two
// members (requester first).
func roles(t *testing.T, nodes []*rnode, keyOf func(product string) string) (product string, owner, requester, third *rnode) {
	t.Helper()
	ring := nodes[0].node.Ring()
	for i := 0; i < 16; i++ {
		product = fmt.Sprintf("p%d", i)
		addr := ring.Owner(keyOf(product))
		if addr == nodes[0].node.Addr() {
			continue
		}
		var rest []*rnode
		for _, rn := range nodes {
			if rn.node.Addr() == addr {
				owner = rn
			} else {
				rest = append(rest, rn)
			}
		}
		return product, owner, rest[0], rest[1]
	}
	t.Fatal("node0 owns every product's key")
	return
}

func stockKey(product string) string { return "/stock?product=" + product }

// TestResolveGeneratesAtOwner: a miss on a key another member owns runs the
// handler on the owner, once; the requester serves the answer as a miss and
// keeps a replica, the owner holds the page, no offer is sent, and the
// third member's miss is then a remote hit that runs nothing.
func TestResolveGeneratesAtOwner(t *testing.T) {
	nodes := newResolveCluster(t, Config{ProbeInterval: -1})
	product, owner, req, third := roles(t, nodes, stockKey)
	key, target := stockKey(product), "/stock?product="+product
	body, outcome := req.get(t, target)
	if outcome != string(weave.OutcomeMiss) {
		t.Fatalf("requester outcome %q, want miss", outcome)
	}
	if owner.count("Stock") != 1 || req.count("Stock") != 0 {
		t.Fatalf("Stock ran %d times on the owner and %d on the requester, want 1 and 0",
			owner.count("Stock"), req.count("Stock"))
	}
	if !owner.cache.Contains(key) || !req.cache.Contains(key) {
		t.Fatal("the owner or the requester does not hold the page")
	}
	if body3, outcome3 := third.get(t, target); outcome3 != string(weave.OutcomeRemoteHit) || body3 != body {
		t.Fatalf("third member: %q %q, want the owner's page as a remote hit", outcome3, body3)
	}
	if n := totalRuns(nodes, "Stock"); n != 1 {
		t.Fatalf("Stock ran %d times across the cluster, want 1", n)
	}
	if _, outcome := req.get(t, target); outcome != string(weave.OutcomeHit) {
		t.Fatalf("requester's replica: outcome %q, want hit", outcome)
	}
	if st := owner.node.Snapshot(); st.GetsGenerated != 1 {
		t.Fatalf("owner GetsGenerated = %d, want 1", st.GetsGenerated)
	}
	for _, rn := range nodes {
		if st := rn.node.Snapshot(); st.OffersSent+st.PutsApplied != 0 {
			t.Fatalf("%s: an offer was sent or applied on the resolve path: %+v", rn.name, st)
		}
	}
}

// TestResolveCoalescesAcrossMembers: two non-owners miss one key at once;
// the owner's flight coalesces them, so the handler runs once across the
// three members and both serve the same page.
func TestResolveCoalescesAcrossMembers(t *testing.T) {
	nodes := newResolveCluster(t, Config{ProbeInterval: -1})
	product, owner, a, b := roles(t, nodes, stockKey)
	target := "/stock?product=" + product
	gate := &holdGate{entered: make(chan struct{}, 1), release: make(chan struct{})}
	owner.hold = gate
	bodies := make([]string, 2)
	var wg sync.WaitGroup
	for i, rn := range []*rnode{a, b} {
		wg.Add(1)
		go func(i int, rn *rnode) {
			defer wg.Done()
			code, body, _ := rn.serve(target)
			if code != http.StatusOK {
				t.Errorf("%s: status %d: %s", rn.name, code, body)
			}
			bodies[i] = body
		}(i, rn)
		if i == 0 {
			<-gate.entered // the first miss leads the owner's flight
		}
	}
	waitForFollowers(t, 1) // the second miss waits on the owner's flight
	close(gate.release)
	wg.Wait()
	if n := totalRuns(nodes, "Stock"); n != 1 {
		t.Fatalf("Stock ran %d times across the cluster, want 1", n)
	}
	if bodies[0] == "" || bodies[0] != bodies[1] {
		t.Fatalf("the two members served %q and %q", bodies[0], bodies[1])
	}
}

// TestResolveWriteRemovesOwnerPage: a write on the third member removes the
// owner-generated page from every member before the write's response
// returns, and the next read shows the write.
func TestResolveWriteRemovesOwnerPage(t *testing.T) {
	nodes := newResolveCluster(t, Config{ProbeInterval: -1})
	product, owner, req, third := roles(t, nodes, stockKey)
	key, target := stockKey(product), "/stock?product="+product
	req.get(t, target)
	if !owner.cache.Contains(key) || !req.cache.Contains(key) {
		t.Fatal("the page is not held by the owner and the requester")
	}
	if _, outcome := third.get(t, "/restock?product="+product+"&units=777"); outcome != string(weave.OutcomeWrite) {
		t.Fatalf("write outcome %q", outcome)
	}
	for _, rn := range nodes {
		if rn.cache.Contains(key) {
			t.Fatalf("%s still holds the page after the write returned", rn.name)
		}
	}
	if body, _ := req.get(t, target); body != fmt.Sprintf("<p>%s: 777 units</p>", product) {
		t.Fatalf("read after the write: %q", body)
	}
}

// TestResolveDivergedRingsKeepDeps: while membership changes, two members'
// rings may disagree on a key's owner. Here a believes b owns the key and b
// believes c does; b's own miss leads a flight to c — resolved there, or,
// through a Remote without Resolve, fetched from c's cache — and a's
// forwarded miss coalesces onto that flight at b. The page a receives must
// still carry its dependency set, so a write removes a's replica: a replica
// stored without one would outlive every write (§3.2).
func TestResolveDivergedRingsKeepDeps(t *testing.T) {
	for _, fetchOnly := range []bool{false, true} {
		t.Run(fmt.Sprintf("fetch-only=%v", fetchOnly), func(t *testing.T) {
			db := newStockDB(t)
			cfg := Config{ProbeInterval: -1, CallTimeout: 10 * time.Second}
			a := newResolveNode(t, "a", db, cfg, weave.Rules{})
			b := newResolveNode(t, "b", db, cfg, weave.Rules{})
			c := newResolveNode(t, "c", db, cfg, weave.Rules{})
			a.node.SetPeers([]string{b.node.Addr()})
			b.node.SetPeers([]string{a.node.Addr(), c.node.Addr()})
			c.node.SetPeers([]string{a.node.Addr(), b.node.Addr()})
			var product string
			for i := 0; product == ""; i++ {
				p := fmt.Sprintf("d%d", i)
				if a.node.Ring().Owner(stockKey(p)) == b.node.Addr() && b.node.Ring().Owner(stockKey(p)) == c.node.Addr() {
					product = p
				}
			}
			if _, err := db.Exec(context.Background(), "INSERT INTO stock (product, units) VALUES (?, ?)", product, 50); err != nil {
				t.Fatal(err)
			}
			key, target := stockKey(product), "/stock?product="+product
			gate := &holdGate{entered: make(chan struct{}, 1), release: make(chan struct{})}
			want := []weave.Outcome{weave.OutcomeMiss, weave.OutcomeRemoteHit} // b, a
			if fetchOnly {
				c.get(t, target) // c holds the page b will fetch
				b.woven.SetRemote(gatedFetch{b.node, gate})
				want[0] = weave.OutcomeRemoteHit
			} else {
				c.hold = gate
			}
			outcomes := make([]string, 2)
			var wg sync.WaitGroup
			for i, rn := range []*rnode{b, a} {
				wg.Add(1)
				go func(i int, rn *rnode) {
					defer wg.Done()
					code, body, outcome := rn.serve(target)
					if code != http.StatusOK {
						t.Errorf("%s: status %d: %s", rn.name, code, body)
					}
					outcomes[i] = outcome
				}(i, rn)
				if i == 0 {
					<-gate.entered // b's flight is waiting on c
				}
			}
			waitForFollowers(t, 1) // a's miss waits on b's flight
			close(gate.release)
			wg.Wait()
			if outcomes[0] != string(want[0]) || outcomes[1] != string(want[1]) {
				t.Fatalf("b served %q and a %q, want %q and %q", outcomes[0], outcomes[1], want[0], want[1])
			}
			if n := totalRuns([]*rnode{a, b, c}, "Stock"); n != 1 || c.count("Stock") != 1 {
				t.Fatalf("Stock ran %d times, want once, on c", n)
			}
			if v, ok := a.cache.Export(key); !ok || len(v.Deps) == 0 {
				t.Fatalf("a's replica: held %v, deps %v; want it held with its dependency set", ok, v.Deps)
			}
			if _, outcome := a.get(t, "/restock?product="+product+"&units=5"); outcome != string(weave.OutcomeWrite) {
				t.Fatalf("write outcome %q", outcome)
			}
			if a.cache.Contains(key) {
				t.Fatal("a's replica survived a write it depends on")
			}
			if body, _ := a.get(t, target); body != fmt.Sprintf("<p>%s: 5 units</p>", product) {
				t.Fatalf("read after the write: %q", body)
			}
		})
	}
}

// gatedFetch is a Remote without Resolve whose fetches wait on a gate.
type gatedFetch struct {
	node *Node
	gate *holdGate
}

func (g gatedFetch) Fetch(ctx context.Context, key string) (cache.Page, bool) {
	g.gate.entered <- struct{}{}
	<-g.gate.release
	return g.node.Fetch(ctx, key)
}

func (g gatedFetch) Offer(key string, body []byte, contentType string, deps []analysis.Query, ttl time.Duration) {
	g.node.Offer(key, body, contentType, deps, ttl)
}

// TestResolveRefusals: each way the owner's answer is refused — a write
// open at the owner, an owner behind the requester's invalidations, a key
// the owner computes differently — ends in exactly one generation on the
// requester, served as a miss.
func TestResolveRefusals(t *testing.T) {
	t.Run("write open at the owner", func(t *testing.T) {
		nodes := newResolveCluster(t, Config{ProbeInterval: -1})
		product, owner, req, _ := roles(t, nodes, stockKey)
		target := "/stock?product=" + product
		// The requester misses while the owner's write on the row is swept
		// locally and not yet broadcast: the owner's generation is refused
		// by its own epoch guard.
		owner.cache.SetRemote(missThenBroadcast{node: owner.node, miss: func() {
			if _, outcome := req.get(t, target); outcome != string(weave.OutcomeMiss) {
				t.Errorf("outcome %q, want miss", outcome)
			}
		}})
		if _, outcome := owner.get(t, "/restock?product="+product+"&units=5"); outcome != string(weave.OutcomeWrite) {
			t.Fatalf("write outcome %q", outcome)
		}
		if n := req.count("Stock"); n != 1 {
			t.Fatalf("the requester generated %d times, want 1", n)
		}
		if st := owner.node.Snapshot(); st.GetsGenerated != 0 {
			t.Fatalf("the owner answered with a page generated inside its open write: %+v", st)
		}
	})
	t.Run("owner behind the requester", func(t *testing.T) {
		nodes := newResolveCluster(t, Config{ProbeInterval: -1})
		product, _, req, _ := roles(t, nodes, stockKey)
		// The requester has begun applying a broadcast no other member has.
		req.node.startApplied("10.9.9.9:1", 1, false)
		if _, outcome := req.get(t, "/stock?product="+product); outcome != string(weave.OutcomeMiss) {
			t.Fatalf("outcome %q, want miss", outcome)
		}
		if n := req.count("Stock"); n != 1 {
			t.Fatalf("the requester generated %d times, want 1", n)
		}
		if st := req.node.Snapshot(); st.StaleFetchRejects != 1 {
			t.Fatalf("StaleFetchRejects = %d, want 1", st.StaleFetchRejects)
		}
	})
	t.Run("key mismatch", func(t *testing.T) {
		// Members that disagree on the key cookies compute different keys
		// for one request; every owner refuses the requester's.
		sid := weave.Rules{KeyCookies: []string{"sid"}}
		nodes := newResolveCluster(t, Config{ProbeInterval: -1}, weave.Rules{}, sid, sid)
		product, owner, _, _ := roles(t, nodes, stockKey)
		req := nodes[0]
		if _, outcome := req.get(t, "/stock?product="+product); outcome != string(weave.OutcomeMiss) {
			t.Fatalf("outcome %q, want miss", outcome)
		}
		if req.count("Stock") != 1 || owner.count("Stock") != 0 {
			t.Fatalf("Stock ran %d times on the requester and %d on the owner, want 1 and 0",
				req.count("Stock"), owner.count("Stock"))
		}
	})
}

// missThenBroadcast runs miss between node's local sweep and its
// broadcast, then delegates.
type missThenBroadcast struct {
	node *Node
	miss func()
}

func (m missThenBroadcast) BroadcastWrite(w analysis.WriteCapture) error {
	m.miss()
	return m.node.BroadcastWrite(w)
}
func (m missThenBroadcast) BroadcastFlush() error { return m.node.BroadcastFlush() }

// TestResolveUncacheableAnswerRunsOnce: a response the owner cannot cache —
// an error status, a redirect, or a read that writes — is served by the
// requester as the owner produced it, headers included, and the handler is
// never run again there.
func TestResolveUncacheableAnswerRunsOnce(t *testing.T) {
	nodes := newResolveCluster(t, Config{ProbeInterval: -1})
	for _, c := range []struct {
		handler, path string
		status        int
		outcome       weave.Outcome
		header        func(product string) http.Header
	}{
		{"Broken", "/broken", http.StatusInternalServerError, weave.OutcomeError, nil},
		{"Moved", "/moved", http.StatusFound, weave.OutcomeError, func(product string) http.Header {
			return http.Header{"Location": {"/stock?product=" + product}, "Set-Cookie": {"seen=" + product}}
		}},
		{"Visit", "/visit", http.StatusOK, weave.OutcomeMiss, nil},
	} {
		keyOf := func(product string) string { return c.path + "?product=" + product }
		product, owner, req, _ := roles(t, nodes, keyOf)
		rr := req.record(c.path + "?product=" + product)
		code, body, outcome := rr.Code, rr.Body.String(), rr.Header().Get(weave.HeaderOutcome)
		if code != c.status || outcome != string(c.outcome) {
			t.Fatalf("%s: status %d outcome %q (%q), want %d %q", c.handler, code, outcome, body, c.status, c.outcome)
		}
		if c.header != nil {
			for name, want := range c.header(product) {
				if got := rr.Header().Values(name); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: %s = %q, want the owner's %q", c.handler, name, got, want)
				}
			}
		}
		if n, on := totalRuns(nodes, c.handler), owner.count(c.handler); n != 1 || on != 1 {
			t.Fatalf("%s ran %d times across the cluster, %d on the owner; want once, on the owner", c.handler, n, on)
		}
		if req.cache.Contains(keyOf(product)) || owner.cache.Contains(keyOf(product)) {
			t.Fatalf("%s: an uncacheable answer was cached", c.handler)
		}
	}
}

// TestResolveFragment: a fragment owned by another member resolves there
// like a page: the owner runs the segment's generator, never the page's
// holes, and the requester assembles the page around it.
func TestResolveFragment(t *testing.T) {
	nodes := newResolveCluster(t, Config{ProbeInterval: -1})
	fragKey := func(product string) string { return "/shelf#units?product=" + product }
	product, owner, req, _ := roles(t, nodes, fragKey)
	body, outcome := req.get(t, "/shelf?product="+product)
	if outcome != string(weave.OutcomeMiss) {
		t.Fatalf("first assembly outcome %q, want miss: the owner generated the fragment for it", outcome)
	}
	if want := fmt.Sprintf("<p>%d units</p><p>served by %s</p>", unitsOf(product), req.name); body != want {
		t.Fatalf("assembled %q, want %q", body, want)
	}
	if owner.count("ShelfUnits") != 1 || req.count("ShelfUnits") != 0 {
		t.Fatalf("the segment ran %d times on the owner and %d on the requester, want 1 and 0",
			owner.count("ShelfUnits"), req.count("ShelfUnits"))
	}
	if owner.count("ShelfHole") != 0 || req.count("ShelfHole") != 1 {
		t.Fatalf("the hole ran %d times on the owner and %d on the requester, want 0 and 1",
			owner.count("ShelfHole"), req.count("ShelfHole"))
	}
	if !owner.cache.Contains(fragKey(product)) || !req.cache.Contains(fragKey(product)) {
		t.Fatal("the fragment is not held by the owner and the requester")
	}
	if _, outcome := req.get(t, "/shelf?product="+product); outcome != string(weave.OutcomeFragmentHit) {
		t.Fatalf("second assembly outcome %q, want fragment-hit from the replica", outcome)
	}
}

// unitsOf is a product's seeded stock, 10 + its number.
func unitsOf(product string) int {
	var n int
	fmt.Sscanf(product, "p%d", &n)
	return 10 + n
}

// TestResolveOwnerDown: with the owner's breaker open, the requester skips
// the call — no dial, no timeout — and generates the page itself.
func TestResolveOwnerDown(t *testing.T) {
	nodes := newResolveCluster(t, Config{ProbeInterval: -1,
		DialTimeout: 200 * time.Millisecond, CallTimeout: 200 * time.Millisecond})
	product, owner, req, _ := roles(t, nodes, stockKey)
	owner.node.Close()
	driveDown(t, req.node, owner.node.Addr())
	before := req.node.Snapshot()
	if _, outcome := req.get(t, "/stock?product="+product); outcome != string(weave.OutcomeMiss) {
		t.Fatalf("outcome %q, want miss", outcome)
	}
	after := req.node.Snapshot()
	if after.BreakerSkips != before.BreakerSkips+1 || after.FetchErrors != before.FetchErrors ||
		after.FetchLatency.Count != before.FetchLatency.Count {
		t.Fatalf("the miss did not skip the open breaker: before %+v after %+v", before, after)
	}
	if n := req.count("Stock"); n != 1 {
		t.Fatalf("the requester generated %d times, want 1", n)
	}
}

// TestResolveSlowGenerationKeepsPeerHealthy: an owner generation that
// outlives the call timeout is answered in time as "not found"; the
// requester generates locally, its call succeeded, and the owner stays
// healthy — while the owner's own generation completes and is cached.
func TestResolveSlowGenerationKeepsPeerHealthy(t *testing.T) {
	const timeout = 200 * time.Millisecond
	nodes := newResolveCluster(t, Config{ProbeInterval: -1, FailureThreshold: 1,
		DialTimeout: timeout, CallTimeout: timeout})
	product, owner, req, _ := roles(t, nodes, stockKey)
	owner.sleep.Store(int64(2 * timeout))
	if _, outcome := req.get(t, "/stock?product="+product); outcome != string(weave.OutcomeMiss) {
		t.Fatalf("outcome %q, want miss", outcome)
	}
	if n := req.count("Stock"); n != 1 {
		t.Fatalf("the requester generated %d times, want 1", n)
	}
	if st := req.node.PeerStates()[owner.node.Addr()]; st != StateHealthy {
		t.Fatalf("owner is %v after a slow generation, want healthy", st)
	}
	if st := req.node.Snapshot(); st.FetchErrors != 0 {
		t.Fatalf("a slow generation counted as a fetch error: %+v", st)
	}
	for deadline := time.Now().Add(10 * time.Second); !owner.cache.Contains(stockKey(product)); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the owner's background generation was never cached")
		}
	}
}

// TestResolveDirect pins Node.Resolve against a member without a Generate
// hook: the owner answers from its cache only, and a forwarded request it
// does not hold is "not found".
func TestResolveDirect(t *testing.T) {
	_, a := bareNode(t, Config{ProbeInterval: -1})
	cb, b := bareNode(t, Config{ProbeInterval: -1})
	join(a, b)
	key := keyOwnedBy(t, a.Ring(), b.Addr())
	req := weave.PeerRequest{URI: key}
	if _, ok := a.Resolve(context.Background(), key, req); ok {
		t.Fatal("an owner without Generate answered a page it does not hold")
	}
	cb.Insert(key, []byte("held"), "text/html", nil, 0)
	got, ok := a.Resolve(context.Background(), key, req)
	if !ok || !got.Cacheable || got.Generated || string(got.Body) != "held" {
		t.Fatalf("Resolve = %+v, %v; want the owner's cached page", got, ok)
	}
}

// TestResolveJudgesOwnerByInvalidationsStartedBeforeTheCall: an
// invalidation the requester starts while the owner generates is not held
// against the owner's vector — the requester's guarded insert tests it
// against the page itself. A write the page does not depend on leaves the
// answer standing; one it depends on still discards it.
func TestResolveJudgesOwnerByInvalidationsStartedBeforeTheCall(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	dep := func(b int64) []analysis.Query {
		return []analysis.Query{{SQL: "SELECT a FROM t WHERE b = ?", Args: []memdb.Value{b}}}
	}
	var b atomic.Int64
	_, owner := bareNode(t, Config{ProbeInterval: -1, Logf: func(string, ...any) {},
		Generate: func(_ context.Context, key string, _ weave.PeerRequest) (weave.Answer, bool) {
			entered <- struct{}{}
			<-release
			return weave.Answer{View: cache.View{Page: cache.Page{Body: []byte(key), ContentType: "text/html"},
				Deps: dep(b.Load())}, Status: http.StatusOK, Generated: true, Cacheable: true}, true
		}})
	creq, req := bareNode(t, Config{ProbeInterval: -1})
	cw, writer := bareNode(t, Config{ProbeInterval: -1})
	all := []*Node{owner, req, writer}
	for _, n := range all {
		var peers []string
		for _, p := range all {
			if p != n {
				peers = append(peers, p.Addr())
			}
		}
		n.SetPeers(peers)
	}
	for i, c := range []struct {
		page, write int64
		kept        bool
	}{{page: 1, write: 2, kept: true}, {page: 3, write: 3, kept: false}} {
		var key string
		for j := 0; key == "" || req.Ring().Owner(key) != owner.Addr(); j++ {
			key = fmt.Sprintf("/page?case=%d&x=%d", i, j)
		}
		b.Store(c.page)
		type result struct {
			a  weave.Answer
			ok bool
		}
		done := make(chan result, 1)
		go func() {
			a, ok := req.Resolve(context.Background(), key, weave.PeerRequest{URI: key})
			done <- result{a, ok}
		}()
		<-entered // the owner's vector is taken; it is generating
		if _, err := cw.InvalidateWrite(analysis.WriteCapture{Query: analysis.Query{
			SQL: "UPDATE t SET a = ? WHERE b = ?", Args: []memdb.Value{int64(0), c.write}}}); err != nil {
			t.Fatal(err)
		}
		release <- struct{}{}
		r := <-done
		if r.ok != c.kept || creq.Contains(key) != c.kept {
			t.Fatalf("page on b=%d, write on b=%d: answer taken %v, cached %v; want %v (stats %+v)",
				c.page, c.write, r.ok, creq.Contains(key), c.kept, req.Snapshot())
		}
	}
}
