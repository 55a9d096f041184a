package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/memdb"
)

// Cluster variant of the cache's property-based consistency harness
// (internal/cache/property_test.go): randomized inserts, offers and fetches
// spread across a real 3-node loopback-TCP cluster while a writer fires
// strong-mode InvalidateWrite calls on random nodes, asserting the paper's
// §3.2 invariant cluster-wide — after the call returns, NO node serves a
// page (whole-page or fragment-shaped key alike) whose dependencies overlap
// the write and whose insert completed before the call began, whether it
// holds its own copy or a replica. The seed is fixed (override with
// AWC_PROP_SEED) so failures reproduce.

func clusterPropSeed(t *testing.T) int64 {
	if s := os.Getenv("AWC_PROP_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad AWC_PROP_SEED %q: %v", s, err)
		}
		return v
	}
	return 0xC1A5CADE
}

const (
	cpTables = 3
	cpVals   = 4
)

type cpDep struct{ table, b int }

func (d cpDep) query() analysis.Query {
	return analysis.Query{
		SQL:  fmt.Sprintf("SELECT a FROM ct%d WHERE b = ?", d.table),
		Args: []memdb.Value{int64(d.b)},
	}
}

type cpWrite struct {
	table     int
	b         int
	unbounded bool
}

func (w cpWrite) capture() analysis.WriteCapture {
	if w.unbounded {
		return analysis.WriteCapture{Query: analysis.Query{
			SQL: fmt.Sprintf("UPDATE ct%d SET a = ?", w.table), Args: []memdb.Value{int64(1)},
		}}
	}
	return analysis.WriteCapture{Query: analysis.Query{
		SQL:  fmt.Sprintf("UPDATE ct%d SET a = ? WHERE b = ?", w.table),
		Args: []memdb.Value{int64(1), int64(w.b)},
	}}
}

func cpOverlaps(d cpDep, w cpWrite) bool {
	return d.table == w.table && (w.unbounded || d.b == w.b)
}

// newPropCluster builds n bare cache+Node members (no woven app — the
// harness drives the caches and the nodes' Fetch and Offer directly; the
// peer tier under test is the strong invalidation broadcast and the two
// replica paths).
func newPropCluster(t *testing.T, n int) ([]*cache.Cache, []*Node) {
	t.Helper()
	caches := make([]*cache.Cache, n)
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	for i := range caches {
		eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cache.New(cache.Options{Engine: eng, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		node, err := New(Config{Listen: "127.0.0.1:0", Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		caches[i], nodes[i], addrs[i] = c, node, node.Addr()
	}
	for i, node := range nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		node.SetPeers(peers)
	}
	return caches, nodes
}

func TestClusterPropertyConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("network property harness skipped in -short")
	}
	seed := clusterPropSeed(t)
	t.Logf("seed %d (override with AWC_PROP_SEED)", seed)
	caches, nodes := newPropCluster(t, 3)

	const nKeys = 16
	setupRng := rand.New(rand.NewSource(seed))
	keys := make([]string, nKeys)
	deps := make([][]cpDep, nKeys)
	var gen, settled [nKeys]atomic.Int64
	var mu [nKeys]sync.Mutex
	for i := range keys {
		if i%2 == 0 {
			keys[i] = fmt.Sprintf("/p?x=%d", i)
		} else {
			// Fragment-shaped keys ride the same wire messages unchanged.
			keys[i] = fmt.Sprintf("/p#frag%d?x=%d", i%4, i)
		}
		n := 1 + setupRng.Intn(2)
		ds := make([]cpDep, n)
		for j := range ds {
			ds[j] = cpDep{table: setupRng.Intn(cpTables), b: setupRng.Intn(cpVals)}
		}
		deps[i] = ds
	}
	// insert stores a new generation of key i on node ci and, with offer,
	// replicates it to the key's owner. A generation is settled only once
	// every copy has landed: an offer that lands after a write which began
	// later is the applied-vector question of Node.Offer, not this harness's.
	insert := func(ci, i int, offer bool) {
		mu[i].Lock()
		g := gen[i].Add(1)
		qs := make([]analysis.Query, len(deps[i]))
		for j, d := range deps[i] {
			qs[j] = d.query()
		}
		body := []byte(fmt.Sprintf("k=%d g=%d", i, g))
		caches[ci].Insert(keys[i], body, "text/html", qs, 0)
		if offer {
			nodes[ci].Offer(keys[i], body, "text/html", qs, 0)
		}
		settled[i].Store(g)
		mu[i].Unlock()
	}
	parseGen := func(body []byte) int64 {
		s := string(body)
		g, err := strconv.ParseInt(s[strings.LastIndexByte(s, '=')+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable body %q: %v", s, err)
		}
		return g
	}

	// Seed every key on a random node.
	for i := 0; i < nKeys; i++ {
		insert(setupRng.Intn(len(caches)), i, false)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ops atomic.Int64
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(id)*104729))
			for ; ; ops.Add(1) {
				select {
				case <-stop:
					return
				default:
				}
				i, ci := rng.Intn(nKeys), rng.Intn(len(caches))
				switch r := rng.Intn(10); {
				case r < 4:
					caches[ci].Lookup(keys[i])
				case r < 6:
					// A replica fetched from the key's owner, possibly in
					// the middle of a write on this node or the owner.
					nodes[ci].Fetch(context.Background(), keys[i])
				default:
					insert(ci, i, r >= 8)
				}
			}
		}(g)
	}

	writerRng := rand.New(rand.NewSource(seed ^ 0xBEEF))
	writes := 60
	if testing.Short() {
		writes = 15
	}
	for n := 0; n < writes; n++ {
		// Pace the writer on the readers, so every run interleaves a fixed
		// minimum of lookups, inserts, offers and fetches with the writes.
		for ops.Load() < int64(8*(n+1)) {
			runtime.Gosched()
		}
		w := cpWrite{table: writerRng.Intn(cpTables), b: writerRng.Intn(cpVals), unbounded: writerRng.Intn(5) == 0}
		var g0 [nKeys]int64
		for i := range keys {
			g0[i] = settled[i].Load()
		}
		// The write lands on a random node; strong mode must apply it on
		// every peer before returning.
		origin := caches[writerRng.Intn(len(caches))]
		if _, err := origin.InvalidateWrite(w.capture()); err != nil {
			t.Fatalf("InvalidateWrite: %v", err)
		}
		for i := range keys {
			dependent := false
			for _, d := range deps[i] {
				if cpOverlaps(d, w) {
					dependent = true
					break
				}
			}
			if !dependent {
				continue
			}
			for ci, c := range caches {
				if pg, ok := c.Lookup(keys[i]); ok {
					if g := parseGen(pg.Body); g <= g0[i] {
						t.Errorf("§3.2 cluster violation: node %d served key %s gen %d (settled before the write, bound %d) after strong InvalidateWrite returned",
							ci, keys[i], g, g0[i])
					}
				}
			}
		}
	}
	close(stop)
	wg.Wait()

	// Sanity: the run exercised real traffic.
	var hits, remoteHits, puts uint64
	for i, c := range caches {
		hits += c.Snapshot().Hits
		st := nodes[i].Snapshot()
		remoteHits += st.RemoteHits
		puts += st.PutsApplied
	}
	if hits == 0 || remoteHits == 0 || puts == 0 {
		t.Fatalf("degenerate run: hits %d, remote hits %d, puts applied %d", hits, remoteHits, puts)
	}
}
