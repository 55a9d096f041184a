package bench

import (
	"context"
	"fmt"
	"testing"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/cluster"
	"autowebcache/internal/memdb"
)

// clusterFixture is a joined N-node cache cluster over loopback TCP, at the
// cache/peer-tier layer (no HTTP in the way of the measurement).
type clusterFixture struct {
	caches []*cache.Cache
	nodes  []*cluster.Node
}

func newClusterFixture(n int) (*clusterFixture, error) {
	f := &clusterFixture{}
	for i := 0; i < n; i++ {
		eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
		if err != nil {
			return nil, err
		}
		c, err := cache.New(cache.Options{Engine: eng, Shards: 8})
		if err != nil {
			return nil, err
		}
		node, err := cluster.New(cluster.Config{Listen: "127.0.0.1:0", Cache: c})
		if err != nil {
			return nil, err
		}
		if err := node.Start(); err != nil {
			return nil, err
		}
		f.caches = append(f.caches, c)
		f.nodes = append(f.nodes, node)
	}
	addrs := make([]string, n)
	for i, node := range f.nodes {
		addrs[i] = node.Addr()
	}
	for i, node := range f.nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		node.SetPeers(peers)
	}
	return f, nil
}

func (f *clusterFixture) close() {
	for _, n := range f.nodes {
		n.Close()
	}
}

// ownerIndex returns the index of the node owning key.
func (f *clusterFixture) ownerIndex(key string) int {
	owner := f.nodes[0].Ring().Owner(key)
	for i, n := range f.nodes {
		if n.Addr() == owner {
			return i
		}
	}
	return 0
}

// benchDeps builds the one-query dependency set the fixture pages carry.
func benchDeps(i int) []analysis.Query {
	return []analysis.Query{{SQL: "SELECT a FROM t WHERE b = ?", Args: []memdb.Value{int64(i)}}}
}

// ClusterScalability measures the peer tier's cost structure on a 3-node
// loopback cluster: the locally-owned hit (must match the single-node
// zero-copy figure — clustering may not tax it), the remote fetch from the
// key's owner, the locally replicated re-hit, and the strong
// invalidation broadcast a write pays to keep all peers consistent.
func ClusterScalability(p Params) (*Table, error) {
	f, err := newClusterFixture(3)
	if err != nil {
		return nil, err
	}
	defer f.close()

	body := make([]byte, 1024)
	t := &Table{
		ID:      "tblCL",
		Title:   "Cluster Peer Tier: hit paths and invalidation broadcast (3 nodes, loopback TCP)",
		Columns: []string{"Path", "ns/op", "allocs/op", "Note"},
		Notes: []string{
			"local-hit is the PR 2 zero-copy path with clustering enabled: the peer tier is never consulted on a local hit",
			"remote-hit pays one length-prefixed TCP round trip to the key's owner; the fetched replica then serves locally",
			"strong-invalidate is InvalidateWrite with the blocking 2-peer broadcast",
		},
	}
	add := func(name string, r testing.BenchmarkResult, note string) {
		t.AddRow(name, fmt.Sprintf("%.0f", float64(r.T.Nanoseconds())/float64(r.N)),
			r.AllocsPerOp(), note)
	}

	// A key owned by node 0, cached there; node 1 fetches it.
	key := ""
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("/page?x=%d", i)
		if f.ownerIndex(k) == 0 {
			key = k
			f.caches[0].Insert(k, body, "text/html", benchDeps(i), 0)
			break
		}
	}
	if key == "" {
		return nil, fmt.Errorf("bench: no node-0-owned key found")
	}

	// local-hit: the owner serving its own page, clustering enabled.
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, ok := f.caches[0].Lookup(key); !ok {
				b.Fatal("unexpected miss")
			}
		}
	})
	add("local-hit", r, "locally owned key, 1 KiB body, zero-copy view")

	// remote-hit: node 1 fetches from the owner each round (the replica is
	// dropped in between so every iteration pays the network hop).
	ctx := context.Background()
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, ok := f.nodes[1].Fetch(ctx, key); !ok {
				b.Fatal("remote fetch missed")
			}
			f.caches[1].InvalidateKey(key)
		}
	})
	add("remote-hit", r, "fetch from owner over loopback TCP + local replica insert/remove")

	// replicated-hit: after one fetch, node 1 serves the replica locally.
	if _, ok := f.nodes[1].Fetch(ctx, key); !ok {
		return nil, fmt.Errorf("bench: warm fetch missed")
	}
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, ok := f.caches[1].Lookup(key); !ok {
				b.Fatal("replica miss")
			}
		}
	})
	add("replicated-hit", r, "fetched replica served locally on the non-owner")

	// strong-invalidate: a write's InvalidateWrite including the blocking
	// broadcast to both peers.
	wcap := analysis.WriteCapture{Query: analysis.Query{
		SQL: "UPDATE t SET a = ? WHERE b = ?", Args: []memdb.Value{int64(1), int64(2)},
	}}
	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := f.caches[0].InvalidateWrite(wcap); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("strong-invalidate", r, "InvalidateWrite + blocking broadcast to 2 peers")

	return t, nil
}

// RemoteDownPeerRecord measures the fetch fallback against a dead peer with
// the circuit breaker open: the failure-domain contract is that a down peer
// costs the read path ~0 — no dial, no CallTimeout — so a node death
// degrades remote hits into local misses instead of stalling every request.
func RemoteDownPeerRecord() (HitPathRecord, error) {
	quiet := func(string, ...any) {}
	mk := func() (*cache.Cache, *cluster.Node, error) {
		eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
		if err != nil {
			return nil, nil, err
		}
		c, err := cache.New(cache.Options{Engine: eng, Shards: 8})
		if err != nil {
			return nil, nil, err
		}
		// The probe loop is disabled so the breaker stays open for the whole
		// measurement instead of cycling through half-open trials.
		node, err := cluster.New(cluster.Config{
			Listen: "127.0.0.1:0", Cache: c, Logf: quiet, ProbeInterval: -1,
			DialTimeout: 200 * time.Millisecond, CallTimeout: 200 * time.Millisecond,
		})
		if err != nil {
			return nil, nil, err
		}
		if err := node.Start(); err != nil {
			return nil, nil, err
		}
		return c, node, nil
	}
	_, a, err := mk()
	if err != nil {
		return HitPathRecord{}, err
	}
	defer a.Close()
	_, b, err := mk()
	if err != nil {
		return HitPathRecord{}, err
	}
	bAddr := b.Addr()
	a.SetPeers([]string{bAddr})
	b.SetPeers([]string{a.Addr()})

	// A key the dead peer owns, so every Fetch would cross the wire.
	key := ""
	for i := 0; i < 256; i++ {
		k := fmt.Sprintf("/page?x=%d", i)
		if a.Ring().Owner(k) == bAddr {
			key = k
			break
		}
	}
	if key == "" {
		return HitPathRecord{}, fmt.Errorf("bench: no peer-owned key found")
	}
	b.Close()

	// Drive the failure detector until the breaker opens.
	ctx := context.Background()
	for i := 0; i < 64 && a.PeerStates()[bAddr] != cluster.StateDown; i++ {
		a.Fetch(ctx, key)
	}
	if a.PeerStates()[bAddr] != cluster.StateDown {
		return HitPathRecord{}, fmt.Errorf("bench: peer never tripped the breaker")
	}

	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, ok := a.Fetch(ctx, key); ok {
				b.Fatal("fetch succeeded against a dead peer")
			}
		}
	})
	return record("remote-down-peer", r,
		"fetch fallback with the key's owner dead and the breaker open: no dial, no timeout paid"), nil
}
