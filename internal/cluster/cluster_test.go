package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/cache/l2"
	"autowebcache/internal/memdb"
	"autowebcache/internal/servlet"
	"autowebcache/internal/weave"
)

// tnode is one in-process cluster member: its engine, page cache, woven
// app and peer-tier Node over a database — a full autowebcache process in
// miniature, listening on a real loopback TCP port.
type tnode struct {
	name  string
	db    *memdb.DB
	cache *cache.Cache
	node  *Node
	woven *weave.Woven
}

// newStockDB returns a database holding the stock table with 16 products.
func newStockDB(t *testing.T) *memdb.DB {
	t.Helper()
	db := memdb.New()
	if err := db.CreateTable(memdb.TableSpec{
		Name: "stock",
		Columns: []memdb.Column{
			{Name: "id", Type: memdb.TypeInt, AutoIncrement: true},
			{Name: "product", Type: memdb.TypeString},
			{Name: "units", Type: memdb.TypeInt},
		},
		Indexed: []string{"product"},
	}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		if _, err := db.Exec(ctx, "INSERT INTO stock (product, units) VALUES (?, ?)",
			fmt.Sprintf("p%d", i), 10+i); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// newTnode builds a member over db; nil gives it a database of its own.
func newTnode(t *testing.T, name string, cfg Config, db *memdb.DB) *tnode {
	t.Helper()
	if db == nil {
		db = newStockDB(t)
	}
	eng, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: eng, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	conn := weave.NewConn(db, eng)

	handlers := []servlet.HandlerInfo{
		{
			Name: "Stock", Path: "/stock",
			Fn: func(w http.ResponseWriter, r *http.Request) {
				product := servlet.Param(r, "product")
				rows, err := conn.Query(r.Context(), "SELECT units FROM stock WHERE product = ?", product)
				if err != nil {
					servlet.ServerError(w, err)
					return
				}
				units := int64(-1)
				if rows.Len() > 0 {
					units = rows.Int(0, 0)
				}
				servlet.WriteHTML(w, fmt.Sprintf("<p>%s on %s: %d units</p>", product, name, units))
			},
		},
		{
			Name: "Restock", Path: "/restock", Write: true,
			Fn: func(w http.ResponseWriter, r *http.Request) {
				product := servlet.Param(r, "product")
				units := servlet.ParamInt(r, "units", 0)
				if _, err := conn.Exec(r.Context(), "UPDATE stock SET units = ? WHERE product = ?",
					units, product); err != nil {
					servlet.ServerError(w, err)
					return
				}
				servlet.WriteHTML(w, "ok")
			},
		},
		{
			// Receive is a write request of two statements: a new stock row
			// for product, and a recount of other.
			Name: "Receive", Path: "/receive", Write: true,
			Fn: func(w http.ResponseWriter, r *http.Request) {
				units := servlet.ParamInt(r, "units", 0)
				if _, err := conn.Exec(r.Context(), "INSERT INTO stock (product, units) VALUES (?, ?)",
					servlet.Param(r, "product"), units); err != nil {
					servlet.ServerError(w, err)
					return
				}
				if _, err := conn.Exec(r.Context(), "UPDATE stock SET units = ? WHERE product = ?",
					units, servlet.Param(r, "other")); err != nil {
					servlet.ServerError(w, err)
					return
				}
				servlet.WriteHTML(w, "ok")
			},
		},
	}
	woven, err := weave.New(handlers, c, weave.Rules{})
	if err != nil {
		t.Fatal(err)
	}

	cfg.Listen = "127.0.0.1:0"
	cfg.Cache = c
	cfg.Generate = woven.ResolvePeer
	node, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	woven.SetRemote(node)
	return &tnode{name: name, db: db, cache: c, node: node, woven: woven}
}

// newCluster builds n nodes over one shared database — the deployment the
// paper assumes — and joins them into one ring.
func newCluster(t *testing.T, n int, cfg Config) []*tnode {
	t.Helper()
	db := newStockDB(t)
	nodes := make([]*tnode, n)
	addrs := make([]string, n)
	for i := range nodes {
		nodes[i] = newTnode(t, fmt.Sprintf("node%d", i), cfg, db)
		addrs[i] = nodes[i].node.Addr()
	}
	for i, tn := range nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		tn.node.SetPeers(peers)
	}
	return nodes
}

// get issues one request against a node's woven app and returns body +
// outcome header.
func (tn *tnode) get(t *testing.T, target string) (string, string) {
	t.Helper()
	rr := httptest.NewRecorder()
	tn.woven.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", tn.name, target, rr.Code, rr.Body.String())
	}
	return rr.Body.String(), rr.Header().Get(weave.HeaderOutcome)
}

// TestClusterStrongInvalidation is the tentpole's acceptance test: pages
// dependent on a row are cached on every node (locally generated, offered
// replicas and fetched replicas alike); a write on ONE node must remove
// them from ALL nodes before the writer's HTTP response is released.
func TestClusterStrongInvalidation(t *testing.T) {
	nodes := newCluster(t, 3, Config{})
	const target = "/stock?product=p3"
	key := "/stock?product=p3"

	// Warm every node: whoever isn't the owner either fetches the page from
	// the owner or generates it and offers the owner a replica; each node
	// ends up with a local copy.
	for _, tn := range nodes {
		body, outcome := tn.get(t, target)
		if body == "" {
			t.Fatalf("%s: empty body", tn.name)
		}
		// First-toucher: miss. Non-owners after that: remote-hit. The owner
		// itself may already hold an offered replica: plain hit.
		switch outcome {
		case string(weave.OutcomeMiss), string(weave.OutcomeRemoteHit), string(weave.OutcomeHit):
		default:
			t.Fatalf("%s: cold outcome %q", tn.name, outcome)
		}
	}
	for _, tn := range nodes {
		if !tn.cache.Contains(key) {
			t.Fatalf("%s: page not cached after warm-up", tn.name)
		}
		// Re-request: now a pure local hit everywhere.
		if _, outcome := tn.get(t, target); outcome != string(weave.OutcomeHit) {
			t.Fatalf("%s: warm outcome %q", tn.name, outcome)
		}
	}

	// Write on node 0. Strong mode: by the time ServeHTTP returns, the
	// dependent page must be gone from nodes 1 and 2 as well (§3.2
	// cluster-wide: the writer's response is released strictly after the
	// invalidation completes).
	if _, outcome := nodes[0].get(t, "/restock?product=p3&units=99"); outcome != string(weave.OutcomeWrite) {
		t.Fatalf("write outcome %q", outcome)
	}
	for _, tn := range nodes {
		if tn.cache.Contains(key) {
			t.Fatalf("%s: stale page survived a strong-mode cluster write", tn.name)
		}
	}

	// An unrelated page must NOT have been invalidated (the broadcast
	// carries the capture, not a flush).
	other := "/stock?product=p7"
	nodes[1].get(t, other)
	if !nodes[1].cache.Contains(other) {
		t.Fatal("unrelated page missing")
	}
	nodes[0].get(t, "/restock?product=p3&units=5")
	if !nodes[1].cache.Contains(other) {
		t.Fatal("write to p3 invalidated the p7 page on a peer")
	}

	// The writer sees its own write immediately (single-node strong
	// consistency still holds under clustering).
	body, _ := nodes[0].get(t, target)
	if want := "5 units"; !strings.Contains(body, want) {
		t.Fatalf("read-after-write body %q, want %q", body, want)
	}
}

// appliedSeq is the last broadcast seq n has finished applying from origin.
func appliedSeq(n *Node, origin string) uint64 {
	n.seqMu.Lock()
	defer n.seqMu.Unlock()
	return n.applied[origin]
}

// TestWriteRequestIsOneBroadcast: a write request of two statements, an
// INSERT and an UPDATE, reaches each peer as one invalidation frame — the
// peer's applied seq for the origin advances by one and the origin counts
// one send per peer — and every page depending on either statement is gone
// on every node by the time the writer's response returns.
func TestWriteRequestIsOneBroadcast(t *testing.T) {
	nodes := newCluster(t, 3, Config{ProbeInterval: -1})
	origin := nodes[0]
	pages := []string{"/stock?product=p3", "/stock?product=p9", "/stock?product=p5"}
	for _, tn := range nodes {
		for _, pg := range pages {
			tn.get(t, pg)
			if !tn.cache.Contains(pg) {
				t.Fatalf("%s: %s not cached after warm-up", tn.name, pg)
			}
		}
	}
	seq0 := make([]uint64, len(nodes))
	for i, tn := range nodes {
		seq0[i] = appliedSeq(tn.node, origin.node.Addr())
	}
	sent0 := origin.node.Snapshot().InvSent

	if _, out := origin.get(t, "/receive?product=p3&other=p9&units=42"); out != string(weave.OutcomeWrite) {
		t.Fatalf("write outcome %q", out)
	}
	for i, tn := range nodes {
		for _, pg := range pages[:2] {
			if tn.cache.Contains(pg) {
				t.Errorf("%s: %s survived the write request", tn.name, pg)
			}
		}
		if !tn.cache.Contains(pages[2]) {
			t.Errorf("%s: the write request removed the unrelated %s", tn.name, pages[2])
		}
		if tn == origin {
			continue
		}
		if got := appliedSeq(tn.node, origin.node.Addr()) - seq0[i]; got != 1 {
			t.Errorf("%s applied %d frames from the origin, want 1", tn.name, got)
		}
		if st := tn.node.Snapshot(); st.GapFlushes != 0 {
			t.Errorf("%s: %d gap flushes", tn.name, st.GapFlushes)
		}
	}
	if got := origin.node.Snapshot().InvSent - sent0; got != 2 {
		t.Errorf("origin sent %d invalidation frames to 2 peers, want 2", got)
	}
}

// TestInvFrameIsOneSweep: a peer with a disk tier applies a two-capture
// invalidation frame as one sweep — both durable disk records it removes
// cost one journal fsync, not one per capture.
func TestInvFrameIsOneSweep(t *testing.T) {
	eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	store, err := l2.Open(l2.Options{Dir: t.TempDir(), SnapshotInterval: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	// One page fits in memory, so each insert demotes the one before it.
	cb, err := cache.New(cache.Options{Engine: eng, MaxBytes: 512, L2: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cb.Close() })
	_, a := bareNode(t, Config{ProbeInterval: -1})
	_, b := bareNode(t, Config{ProbeInterval: -1, Cache: cb})
	join(a, b)

	row := func(k int64) []analysis.Query {
		return []analysis.Query{{SQL: "SELECT a FROM ct0 WHERE b = ?", Args: []memdb.Value{k}}}
	}
	write := func(k int64) analysis.WriteCapture {
		return analysis.WriteCapture{Query: analysis.Query{
			SQL: "UPDATE ct0 SET a = ? WHERE b = ?", Args: []memdb.Value{int64(9), k}}}
	}
	for k := int64(1); k <= 3; k++ {
		cb.Insert(fmt.Sprintf("/row?k=%d", k), []byte("page"), "text/html", row(k), 0)
	}
	st := cb.Snapshot()
	if st.Demotions != 2 || st.L2.Entries != 2 {
		t.Fatalf("rows 1 and 2 not demoted to disk: %d demotions, %d disk entries", st.Demotions, st.L2.Entries)
	}
	syncs0 := st.L2.JournalSyncs
	if err := a.BroadcastWrites([]analysis.WriteCapture{write(1), write(2)}); err != nil {
		t.Fatal(err)
	}
	st = cb.Snapshot()
	if st.L2.Entries != 0 || st.Invalidations != 2 || !cb.Contains("/row?k=3") {
		t.Fatalf("after the frame: %d disk entries, %d invalidations; want both disk pages gone and row 3 kept",
			st.L2.Entries, st.Invalidations)
	}
	if got := st.L2.JournalSyncs - syncs0; got != 1 {
		t.Fatalf("the frame cost %d journal fsyncs, want 1", got)
	}
	if bs := b.Snapshot(); bs.InvApplied != 2 || bs.GapFlushes != 0 {
		t.Fatalf("peer applied %d captures with %d gap flushes; want 2, 0", bs.InvApplied, bs.GapFlushes)
	}
}

// TestBroadcastFlush: a flush broadcast empties the peer's page cache
// before it returns, and it is sequenced like an
// invalidation — the origin's next write applies on the peer as a targeted
// sweep, not a gap flush.
func TestBroadcastFlush(t *testing.T) {
	nodes := newCluster(t, 2, Config{ProbeInterval: -1})
	a, b := nodes[0], nodes[1]
	b.get(t, "/stock?product=p5")
	if b.cache.Len() == 0 {
		t.Fatal("peer cache not primed")
	}
	if err := a.node.BroadcastFlush(); err != nil {
		t.Fatal(err)
	}
	if n := b.cache.Len(); n != 0 {
		t.Fatalf("after the flush broadcast returned, the peer holds %d pages", n)
	}

	b.get(t, "/stock?product=p5")
	b.get(t, "/stock?product=p7")
	a.get(t, "/restock?product=p5&units=1")
	if b.cache.Contains("/stock?product=p5") {
		t.Fatal("the write after the flush did not reach the peer")
	}
	if !b.cache.Contains("/stock?product=p7") {
		t.Fatal("the write after the flush removed an unrelated page on the peer")
	}
	if st := b.node.Snapshot(); st.FlushApplied != 1 || st.InvApplied != 1 || st.GapFlushes != 0 {
		t.Fatalf("peer: %d flushes, %d invalidations, %d gap flushes applied; want 1, 1, 0",
			st.FlushApplied, st.InvApplied, st.GapFlushes)
	}
}

// TestClusterRemoteFetch pins the remote hop: a page generated on its owner
// is served to another node as a remote hit, which then becomes a local
// replica served as a plain hit.
func TestClusterRemoteFetch(t *testing.T) {
	nodes := newCluster(t, 3, Config{})
	// Find a key owned by a specific node so the flow is deterministic.
	ring := nodes[0].node.Ring()
	byAddr := make(map[string]*tnode)
	for _, tn := range nodes {
		byAddr[tn.node.Addr()] = tn
	}
	var key string
	var owner *tnode
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("/stock?product=p%d", i%16)
		owner = byAddr[ring.Owner(k)]
		if owner != nodes[0] {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key owned by a non-node0 member (ring degenerate?)")
	}

	// Generate on the owner, then request from node 0: a remote hit.
	if _, outcome := owner.get(t, key); outcome != string(weave.OutcomeMiss) {
		t.Fatalf("owner cold outcome %q", outcome)
	}
	if _, outcome := nodes[0].get(t, key); outcome != string(weave.OutcomeRemoteHit) {
		t.Fatalf("fetch outcome %q, want remote-hit", outcome)
	}
	// The fetched replica is now local: the next request is a plain hit.
	if _, outcome := nodes[0].get(t, key); outcome != string(weave.OutcomeHit) {
		t.Fatalf("replica outcome %q, want hit", outcome)
	}
	st := nodes[0].node.Snapshot()
	if st.RemoteHits != 1 {
		t.Fatalf("node0 remote hits = %d: %+v", st.RemoteHits, st)
	}
	if ost := owner.node.Snapshot(); ost.GetsServed == 0 {
		t.Fatalf("owner served no gets: %+v", ost)
	}
}

// TestClusterRebalanceOnNodeRemoval: killing a member and removing it from
// the ring moves ONLY its keyspace to the survivors, and requests for its
// former keys keep working (handler fallback, then normal caching).
func TestClusterRebalanceOnNodeRemoval(t *testing.T) {
	nodes := newCluster(t, 3, Config{})
	dead := nodes[2]
	deadAddr := dead.node.Addr()
	survivors := nodes[:2]

	ringBefore := nodes[0].node.Ring()
	keys := make([]string, 0, 32)
	ownersBefore := make(map[string]string)
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("/stock?product=p%d", i%16)
		keys = append(keys, k)
		ownersBefore[k] = ringBefore.Owner(k)
	}

	// Kill the node, then reconfigure the survivors' membership.
	dead.node.Close()
	addrs := []string{nodes[0].node.Addr(), nodes[1].node.Addr()}
	nodes[0].node.SetPeers([]string{addrs[1]})
	nodes[1].node.SetPeers([]string{addrs[0]})

	ringAfter := nodes[0].node.Ring()
	if ringAfter.Len() != 2 {
		t.Fatalf("ring size %d after removal", ringAfter.Len())
	}
	moved := 0
	for _, k := range keys {
		after := ringAfter.Owner(k)
		if after == deadAddr {
			t.Fatalf("%s still owned by removed node", k)
		}
		if ownersBefore[k] == deadAddr {
			moved++
			continue
		}
		if after != ownersBefore[k] {
			t.Fatalf("%s moved %s -> %s although its owner survived", k, ownersBefore[k], after)
		}
	}

	// Requests for formerly dead-owned keys flow normally on the survivors:
	// first a miss (generate + replicate among survivors), then hits.
	for _, tn := range survivors {
		for _, k := range keys {
			tn.get(t, k)
		}
		for _, k := range keys {
			if _, outcome := tn.get(t, k); outcome != string(weave.OutcomeHit) {
				t.Fatalf("%s %s: outcome %q after rebalance", tn.name, k, outcome)
			}
		}
	}

	// A strong write still settles across the remaining members.
	survivors[0].get(t, "/restock?product=p1&units=3")
	for _, tn := range survivors {
		if tn.cache.Contains("/stock?product=p1") {
			t.Fatalf("%s: stale page after post-rebalance write", tn.name)
		}
	}
}

// TestClusterUnreachablePeerDegrades: a dead owner that is still in the
// ring costs one failed call, after which the request falls back to local
// handler execution — no error surfaces to the client.
func TestClusterUnreachablePeerDegrades(t *testing.T) {
	nodes := newCluster(t, 2, Config{CallTimeout: 500 * time.Millisecond, DialTimeout: 500 * time.Millisecond})
	// Kill node 1 WITHOUT reconfiguring node 0's ring.
	nodes[1].node.Close()

	ring := nodes[0].node.Ring()
	var key string
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("/stock?product=p%d", i%16)
		if ring.Owner(k) == nodes[1].node.Addr() {
			key = k
			break
		}
	}
	if key == "" {
		t.Skip("no key owned by the dead node in this hash layout")
	}
	body, outcome := nodes[0].get(t, key)
	if outcome != string(weave.OutcomeMiss) {
		t.Fatalf("outcome %q, want miss fallback", outcome)
	}
	if body == "" {
		t.Fatal("empty body")
	}
	if st := nodes[0].node.Snapshot(); st.FetchErrors == 0 && st.RemoteMisses == 0 {
		t.Fatalf("degradation not accounted: %+v", st)
	}
}

// TestClusterLocalMode: an empty peer list must behave exactly like an
// unclustered weave — same outcome sequence, no network dependency — so
// enabling the tier on a single node is free.
func TestClusterLocalMode(t *testing.T) {
	clustered := newTnode(t, "solo", Config{}, nil) // node started, zero peers
	plain := newTnode(t, "plain", Config{}, nil)    // reference...
	plain.woven.SetRemote(nil)                      // ...with the tier detached
	plain.cache.SetRemote(nil)

	targets := []string{"/stock?product=p1", "/stock?product=p2"}
	for _, target := range targets {
		_, co := clustered.get(t, target)
		_, po := plain.get(t, target)
		if co != po {
			t.Fatalf("%s: cold outcome %q (clustered) != %q (plain)", target, co, po)
		}
		_, co = clustered.get(t, target)
		_, po = plain.get(t, target)
		if co != po || co != string(weave.OutcomeHit) {
			t.Fatalf("%s: warm outcome %q / %q", target, co, po)
		}
	}
	// Writes invalidate locally and the broadcast is a no-op.
	clustered.get(t, "/restock?product=p1&units=7")
	if clustered.cache.Contains("/stock?product=p1") {
		t.Fatal("stale page after local-mode write")
	}
	st := clustered.node.Snapshot()
	if st.RemoteHits != 0 || st.FetchErrors != 0 || st.InvSent != 0 || st.InvBroadcastFailures != 0 {
		t.Fatalf("local mode touched the network: %+v", st)
	}
}

// TestClusterLocalHitAllocFree: the PR 2 zero-copy guard holds with
// clustering enabled — a locally cached page is served without consulting
// the peer tier and without allocating.
func TestClusterLocalHitAllocFree(t *testing.T) {
	tn := newTnode(t, "solo", Config{}, nil)
	key := "/stock?product=p4"
	tn.get(t, key) // prime
	if !tn.cache.Contains(key) {
		t.Fatal("page not cached")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := tn.cache.Lookup(key); !ok {
			t.Fatal("unexpected miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("local hit allocates %.1f with clustering enabled", allocs)
	}
}

// TestClusterConcurrentChurn hammers a 3-node cluster with parallel reads
// on every node and writes on one, under -race: the protocol, the flight
// coalescing across the remote hop and the invalidation broadcasts must
// stay deadlock- and race-free.
func TestClusterConcurrentChurn(t *testing.T) {
	nodes := newCluster(t, 3, Config{})
	var wg sync.WaitGroup
	for gi, tn := range nodes {
		wg.Add(1)
		go func(gi int, tn *tnode) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				rr := httptest.NewRecorder()
				target := fmt.Sprintf("/stock?product=p%d", (i*7+gi)%16)
				tn.woven.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil))
				if rr.Code != http.StatusOK {
					t.Errorf("%s: status %d", tn.name, rr.Code)
					return
				}
			}
		}(gi, tn)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			rr := httptest.NewRecorder()
			target := fmt.Sprintf("/restock?product=p%d&units=%d", i%16, i)
			nodes[0].woven.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil))
			if rr.Code != http.StatusOK {
				t.Errorf("write: status %d", rr.Code)
				return
			}
		}
	}()
	wg.Wait()
}
