package cluster

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/cluster/fault"
)

// Chaos twin of TestClusterPropertyConsistency: the same randomized
// insert/lookup churn and strong-mode writer over a real 3-node loopback
// cluster, but with a seeded fault injector mutating the network between
// writes — hard partitions, one-way drops, black holes, added dial
// latency, mid-frame cuts, heals. Two invariants:
//
//   - while the network is whole and every peer healthy, each strong
//     InvalidateWrite keeps the paper's §3.2 guarantee exactly as the
//     fault-free harness asserts it;
//   - after the final heal, once probes have propagated every origin's
//     broadcast watermark (forcing quarantine flushes on any node that
//     missed an invalidation), NO node serves an entry that settled
//     before its key's last overlapping write — the stale state a
//     partition stranded is gone, not merely unreachable.
//
// The schedule is fully seeded (override with AWC_CHAOS_SEED) so a
// failure replays byte-for-byte.
func TestClusterChaosConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("network chaos harness skipped in -short")
	}
	seed := int64(0xC1A05)
	if s := os.Getenv("AWC_CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad AWC_CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("seed %d (override with AWC_CHAOS_SEED)", seed)

	inj := fault.NewInjector(seed)
	const nNodes = 3
	caches := make([]*cache.Cache, nNodes)
	nodes := make([]*Node, nNodes)
	addrs := make([]string, nNodes)
	quiet := func(string, ...any) {}
	for i := range caches {
		eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cache.New(cache.Options{Engine: eng, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		// The node's ring address is only known after Start; route dials
		// through a self pointer so injector rules key on real addresses.
		self := new(string)
		node, err := New(Config{
			Listen: "127.0.0.1:0", Cache: c, Logf: quiet,
			Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
				return inj.Dialer(*self)(addr, timeout)
			},
			DialTimeout: 300 * time.Millisecond, CallTimeout: 300 * time.Millisecond,
			FailureThreshold: 2, ProbeInterval: 40 * time.Millisecond,
			ReconnectBackoff: 20 * time.Millisecond, MaxReconnectBackoff: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		*self = node.Addr()
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
			keys[i] = fmt.Sprintf("/p#frag%d?x=%d", i%4, i)
		}
		n := 1 + setupRng.Intn(2)
		ds := make([]cpDep, n)
		for j := range ds {
			ds[j] = cpDep{table: setupRng.Intn(cpTables), b: setupRng.Intn(cpVals)}
		}
		deps[i] = ds
	}
	insert := func(c *cache.Cache, i int) {
		mu[i].Lock()
		g := gen[i].Add(1)
		qs := make([]analysis.Query, len(deps[i]))
		for j, d := range deps[i] {
			qs[j] = d.query()
		}
		c.Insert(keys[i], []byte(fmt.Sprintf("k=%d g=%d", i, g)), "text/html", qs, 0)
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

	for i := 0; i < nKeys; i++ {
		insert(caches[setupRng.Intn(len(caches))], i)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(id)*104729))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(nKeys)
				c := caches[rng.Intn(len(caches))]
				if rng.Intn(10) < 6 {
					c.Lookup(keys[i])
				} else {
					insert(c, i)
				}
			}
		}(g)
	}

	// allHealthy reports whether every node sees every peer healthy — the
	// gate for per-write §3.2 assertions: a write returning while a breaker
	// is open legitimately skipped that peer (quarantine covers it later).
	allHealthy := func() bool {
		for _, n := range nodes {
			for _, st := range n.PeerStates() {
				if st != StateHealthy {
					return false
				}
			}
		}
		return true
	}

	// The chaos schedule: between writes, mutate the network. faultsActive
	// tracks whether any rule is installed; bounds[i] records each key's
	// settled generation at its LAST overlapping write — the final-heal
	// invariant's per-key staleness line.
	chaosRng := rand.New(rand.NewSource(seed ^ 0x5EED))
	writerRng := rand.New(rand.NewSource(seed ^ 0xBEEF))
	faultsActive := false
	bounds := make([]int64, nKeys)
	for i := range bounds {
		bounds[i] = -1
	}
	pair := func() (string, string) {
		x := chaosRng.Intn(nNodes)
		y := (x + 1 + chaosRng.Intn(nNodes-1)) % nNodes
		return addrs[x], addrs[y]
	}
	const writes = 60
	for n := 0; n < writes; n++ {
		// Roughly every third write, shake the network.
		if chaosRng.Intn(3) == 0 {
			from, to := pair()
			switch chaosRng.Intn(8) {
			case 0:
				inj.Partition(from, to)
				faultsActive = true
			case 1:
				inj.Set(from, to, fault.Rule{Drop: true}) // one-way partition
				faultsActive = true
			case 2:
				inj.Set(from, to, fault.Rule{Blackhole: true})
				faultsActive = true
			case 3:
				inj.Set(from, to, fault.Rule{Delay: 10 * time.Millisecond})
				faultsActive = true
			case 4:
				inj.Set(from, to, fault.Rule{CutAfter: 64 + chaosRng.Intn(512)})
				faultsActive = true
			default: // heal twice as often as any single fault
				inj.Heal()
				faultsActive = false
			}
		}

		w := cpWrite{table: writerRng.Intn(cpTables), b: writerRng.Intn(cpVals), unbounded: writerRng.Intn(5) == 0}
		var g0 [nKeys]int64
		for i := range keys {
			g0[i] = settled[i].Load()
		}
		origin := caches[writerRng.Intn(len(caches))]
		if _, err := origin.InvalidateWrite(w.capture()); err != nil {
			t.Fatalf("InvalidateWrite: %v", err)
		}
		for i := range keys {
			for _, d := range deps[i] {
				if cpOverlaps(d, w) {
					bounds[i] = g0[i]
					break
				}
			}
		}
		if faultsActive || !allHealthy() {
			continue // §3.2 is only claimed on a whole network
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
						t.Errorf("§3.2 violation on a whole network: node %d served key %s gen %d (bound %d)",
							ci, keys[i], g, g0[i])
					}
				}
			}
		}
	}
	close(stop)
	wg.Wait()

	// Final heal: probes must drag every node up to every origin's
	// broadcast watermark — any node that missed an invalidation discovers
	// the gap and quarantine-flushes.
	inj.Heal()
	deadline := time.Now().Add(10 * time.Second)
	for {
		caughtUp := allHealthy()
		if caughtUp {
			for i, origin := range nodes {
				want := origin.seqDone.Load()
				for j, n := range nodes {
					if j == i {
						continue
					}
					n.seqMu.Lock()
					got := n.applied[origin.self]
					n.seqMu.Unlock()
					if got < want {
						caughtUp = false
					}
				}
			}
		}
		if caughtUp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster never converged after the final heal")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The quarantine invariant: no node anywhere serves an entry that
	// settled before its key's last overlapping write.
	for i := range keys {
		if bounds[i] < 0 {
			continue
		}
		for ci, c := range caches {
			if pg, ok := c.Lookup(keys[i]); ok {
				if g := parseGen(pg.Body); g <= bounds[i] {
					t.Errorf("stale entry survived heal+quarantine: node %d key %s gen %d (bound %d)",
						ci, keys[i], g, bounds[i])
				}
			}
		}
	}

	// Sanity: chaos ran — at least one fault was scheduled and traffic
	// flowed.
	hits := uint64(0)
	var gapFlushes uint64
	for i, c := range caches {
		hits += c.Snapshot().Hits
		gapFlushes += nodes[i].Snapshot().GapFlushes
	}
	if hits == 0 {
		t.Fatal("degenerate run: no hits anywhere")
	}
	t.Logf("gap flushes across the cluster: %d", gapFlushes)
}
