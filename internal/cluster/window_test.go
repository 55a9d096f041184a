package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
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

// The replica windows of a strong write. A write is open on its node from
// the local sweep until the peer broadcast returns; a replica that lands on
// that node in between — fetched from a peer that has not applied the write
// yet, or offered by one — is a copy of the pre-write page that no sweep
// will ever remove. TestFetchWindow and TestOfferWindow drive the replica
// into exactly that gap through the node's RemoteInvalidator, then check the
// writer's own node. TestExportVouchesOnlyForAppliedWrites is the same gap
// on a peer: a node that has applied the write fetches from one that has
// received it but not yet swept.

// stockTargetOwnedBy returns a /stock page, its cache key and its product,
// for a key the given node owns.
func stockTargetOwnedBy(t *testing.T, ring *Ring, owner string) (target, key, product string) {
	t.Helper()
	for i := 0; i < 16; i++ {
		product = fmt.Sprintf("p%d", i)
		target = "/stock?product=" + product
		key = servlet.PageKey(httptest.NewRequest(http.MethodGet, target, nil))
		if ring.Owner(key) == owner {
			return target, key, product
		}
	}
	t.Fatal("no /stock page owned by " + owner)
	return "", "", ""
}

// fetchThenBroadcast lets a node.Fetch(key) finish in the gap between the
// local sweep and the broadcast, then delegates.
type fetchThenBroadcast struct {
	node *Node
	key  string
}

func (f fetchThenBroadcast) BroadcastWrite(w analysis.WriteCapture) error {
	f.node.Fetch(context.Background(), f.key)
	return f.node.BroadcastWrite(w)
}
func (f fetchThenBroadcast) BroadcastFlush() error { return f.node.BroadcastFlush() }

// TestFetchWindow: node0 writes a row whose page node1 owns and holds. A
// fetch on node0 between its local sweep and its broadcast gets node1's
// still-valid pre-write page; the open write must refuse it.
func TestFetchWindow(t *testing.T) {
	nodes := newCluster(t, 2, Config{})
	n0, n1 := nodes[0], nodes[1]
	target, key, product := stockTargetOwnedBy(t, n0.node.Ring(), n1.node.Addr())
	n1.get(t, target) // miss: node1 now holds its own rendering of the page
	n0.cache.SetRemote(fetchThenBroadcast{node: n0.node, key: key})
	if _, out := n0.get(t, "/restock?product="+product+"&units=99"); out != string(weave.OutcomeWrite) {
		t.Fatalf("write outcome %q", out)
	}
	if body, out := n0.get(t, target); out == string(weave.OutcomeHit) {
		t.Errorf("stale: node0 serves %q as a hit after its own write returned", body)
	}
	if st := n0.node.Snapshot(); st.FetchAborts != 1 {
		t.Errorf("FetchAborts = %d, want 1 (the fetch inside the open write)", st.FetchAborts)
	}
}

// offerThenBroadcast makes from offer v to its owner in the gap between
// self's local sweep and its broadcast, then delegates.
type offerThenBroadcast struct {
	from, self *Node
	key        string
	v          cache.View
}

func (o offerThenBroadcast) BroadcastWrite(w analysis.WriteCapture) error {
	o.from.Offer(o.key, o.v.Body, o.v.ContentType, o.v.Deps, 0)
	return o.self.BroadcastWrite(w)
}
func (o offerThenBroadcast) BroadcastFlush() error { return o.self.BroadcastFlush() }

// TestOfferWindow is the owner-side twin: node1 owns the page and writes;
// node0, which has not applied the write yet, offers its pre-write copy
// inside node1's open write. node1 must refuse the put.
func TestOfferWindow(t *testing.T) {
	nodes := newCluster(t, 2, Config{})
	n0, n1 := nodes[0], nodes[1]
	target, key, product := stockTargetOwnedBy(t, n0.node.Ring(), n1.node.Addr())
	body0, _ := n0.get(t, target) // miss on node0, generated by node1
	v, ok := n0.cache.Export(key)
	if !ok {
		t.Fatal("node0 did not cache the page")
	}
	n1.cache.SetRemote(offerThenBroadcast{from: n0.node, self: n1.node, key: key, v: v})
	if _, out := n1.get(t, "/restock?product="+product+"&units=99"); out != string(weave.OutcomeWrite) {
		t.Fatalf("write outcome %q", out)
	}
	if body, out := n1.get(t, target); out == string(weave.OutcomeHit) && body == body0 {
		t.Errorf("stale: node1 serves %q as a hit after its own write returned", body)
	}
	if st := n1.node.Snapshot(); st.PutsRejected != 1 {
		t.Errorf("PutsRejected = %d, want 1 (the offer inside the open write)", st.PutsRejected)
	}
}

// gateSchema is an analysis schema whose AutoIncrementColumn — consulted by
// PrepareWrite for every INSERT capture with an auto id — parks once armed
// until released: it holds its node inside a peer invalidation, after the
// message arrived and before the sweep.
type gateSchema struct {
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *gateSchema) ColumnNames(string) ([]string, error) { return []string{"id", "a", "b"}, nil }

func (g *gateSchema) AutoIncrementColumn(string) (string, bool) {
	if g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
	return "id", true
}

// TestExportVouchesOnlyForAppliedWrites: a node must not vouch, in the
// applied vector of a fetch answer, for a write it has received but not yet
// swept. The owner is parked between the two while node y has applied the
// write; y's fetch of the owner's pre-write copy must be refused.
func TestExportVouchesOnlyForAppliedWrites(t *testing.T) {
	gate := &gateSchema{entered: make(chan struct{}), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(gate.release) })
	defer release()
	eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, gate)
	if err != nil {
		t.Fatal(err)
	}
	co, owner := newGovNode(t, cache.Options{Engine: eng})
	ca, a := newGovNode(t, cache.Options{})
	cy, y := newGovNode(t, cache.Options{})
	all := []*Node{owner, a, y}
	for _, n := range all {
		var peers []string
		for _, p := range all {
			if p != n {
				peers = append(peers, p.Addr())
			}
		}
		n.SetPeers(peers)
	}
	key := keyOwnedBy(t, y.Ring(), owner.Addr())
	deps := []analysis.Query{{SQL: "SELECT a FROM t WHERE b = ?", Args: []memdb.Value{int64(1)}}}
	co.Insert(key, []byte("pre-write"), "text/html", deps, 0)

	gate.armed.Store(true)
	w := analysis.WriteCapture{HasAutoID: true, Query: analysis.Query{
		SQL: "INSERT INTO t (a, b) VALUES (?, ?)", Args: []memdb.Value{int64(5), int64(1)}}}
	done := make(chan error, 1)
	go func() {
		_, err := ca.InvalidateWrite(w)
		done <- err
	}()
	select {
	case <-gate.entered: // the owner holds the write, unswept
	case <-time.After(10 * time.Second):
		t.Fatal("the owner never prepared the write")
	}
	for deadline := time.Now().Add(10 * time.Second); y.Snapshot().InvApplied == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("y never applied the write")
		}
	}
	if _, ok := y.Fetch(t.Context(), key); ok {
		t.Error("y took the owner's pre-write copy")
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, ok := cy.Lookup(key); ok {
		t.Fatal("y serves a page the write removed")
	}
}
