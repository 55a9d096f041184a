// cluster demonstrates the peer tier: three autowebcache nodes over one
// shared database, joined into one logical cache by a consistent-hash
// ring, with misses resolved at the key's owner and cluster-wide strong
// invalidation — the multi-node web tier of the paper's own testbed,
// applied to the cache.
//
// The three nodes run in one process for convenience but talk over real
// loopback TCP, exactly as three machines would.
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"autowebcache"
	"autowebcache/internal/weave"
)

// node is one cluster member: its runtime over the shared database, woven
// app and peer-tier endpoint.
type node struct {
	name    string
	rt      *autowebcache.Runtime
	handler *autowebcache.Woven
	peer    *autowebcache.ClusterNode
}

// newStockDB is the database every node queries.
func newStockDB() *autowebcache.DB {
	db := autowebcache.NewDB()
	if err := db.CreateTable(autowebcache.TableSpec{
		Name: "stock",
		Columns: []autowebcache.Column{
			{Name: "id", Type: autowebcache.TypeInt, AutoIncrement: true},
			{Name: "product", Type: autowebcache.TypeString},
			{Name: "units", Type: autowebcache.TypeInt},
		},
	}); err != nil {
		log.Fatal(err)
	}
	for _, p := range []string{"anvil", "rocket", "magnet"} {
		if _, err := db.Exec(context.Background(), "INSERT INTO stock (product, units) VALUES (?, ?)", p, 10); err != nil {
			log.Fatal(err)
		}
	}
	return db
}

func buildNode(name string, db *autowebcache.DB) *node {
	rt, err := autowebcache.New(db, autowebcache.Config{})
	if err != nil {
		log.Fatal(err)
	}
	conn := rt.Conn()
	handlers := []autowebcache.HandlerInfo{
		{
			Name: "Stock", Path: "/stock",
			Fn: func(w http.ResponseWriter, r *http.Request) {
				product := r.URL.Query().Get("product")
				rows, err := conn.Query(r.Context(), "SELECT units FROM stock WHERE product = ?", product)
				if err != nil || rows.Len() == 0 {
					http.Error(w, "no such product", 404)
					return
				}
				fmt.Fprintf(w, "%s: %d units (generated by %s)\n", product, rows.Int(0, 0), name)
			},
		},
		{
			Name: "Restock", Path: "/restock", Write: true,
			Fn: func(w http.ResponseWriter, r *http.Request) {
				q := r.URL.Query()
				if _, err := conn.Exec(r.Context(), "UPDATE stock SET units = ? WHERE product = ?",
					q.Get("units"), q.Get("product")); err != nil {
					http.Error(w, err.Error(), 500)
					return
				}
				fmt.Fprintln(w, "ok")
			},
		},
	}
	handler, err := rt.Weave(handlers, autowebcache.Rules{})
	if err != nil {
		log.Fatal(err)
	}
	peer, err := rt.Cluster(handler, autowebcache.ClusterConfig{ListenPeer: "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	return &node{name: name, rt: rt, handler: handler, peer: peer}
}

func get(n *node, target string) (string, string) {
	rr := httptest.NewRecorder()
	n.handler.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, target, nil))
	return rr.Body.String(), rr.Header().Get(weave.HeaderOutcome)
}

func main() {
	// Boot three nodes over one database, then join them into one ring.
	db := newStockDB()
	nodes := []*node{buildNode("node-A", db), buildNode("node-B", db), buildNode("node-C", db)}
	addrs := make([]string, len(nodes))
	for i, n := range nodes {
		addrs[i] = n.peer.Addr()
	}
	for i, n := range nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		n.peer.SetPeers(peers)
		defer n.peer.Close()
	}
	ring := nodes[0].peer.Ring()
	fmt.Printf("three nodes joined: %s\n", ring)
	fmt.Printf("key %q is owned by %s\n\n", "/stock?product=anvil", ring.Owner("/stock?product=anvil"))

	// 1. Cold request on node A (miss): the miss is resolved at the key's
	// owner, which runs the handler and keeps the page; A keeps a replica.
	// (If A owns the key, the handler runs on A.)
	body, outcome := get(nodes[0], "/stock?product=anvil")
	fmt.Printf("node-A first read : %-10s %s", outcome, body)

	// 2. The same page from node B: served by the cluster without running
	// the handler — from the key's owner's cache (remote-hit) or, if B owns
	// the key, from its own (hit).
	body, outcome = get(nodes[1], "/stock?product=anvil")
	fmt.Printf("node-B same page  : %-10s %s", outcome, body)

	// 3. And again on B: the owner's page has a local replica now.
	_, outcome = get(nodes[1], "/stock?product=anvil")
	fmt.Printf("node-B again      : %-10s (replica is local now)\n\n", outcome)

	// 4. A write on node C invalidates the page on EVERY node before the
	// write's response is released (strong mode): the next read anywhere
	// regenerates instead of serving stale units.
	get(nodes[2], "/restock?product=anvil&units=3")
	fmt.Println("node-C wrote units=3 (strong invalidation broadcast)")
	for _, n := range nodes {
		if n.rt.Cache().Contains("/stock?product=anvil") {
			fmt.Printf("  %s: STALE PAGE SURVIVED (bug!)\n", n.name)
		} else {
			fmt.Printf("  %s: page invalidated\n", n.name)
		}
	}
	body, outcome = get(nodes[2], "/stock?product=anvil")
	fmt.Printf("\nnode-C read after write: %-10s %s", outcome, body)

	for _, n := range nodes {
		fmt.Printf("%s cluster stats: %+v\n", n.name, n.peer.Snapshot())
	}
}
