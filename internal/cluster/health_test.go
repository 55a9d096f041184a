package cluster

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/cluster/fault"
	"autowebcache/internal/memdb"
	"autowebcache/internal/weave"
)

// TestHealthStateMachine pins the failure detector's transitions: first
// failure -> suspect, threshold consecutive failures -> down (breaker
// open), any success -> healthy with the backoff reset, and down-state
// retries follow a jittered exponential backoff bounded by the cap.
func TestHealthStateMachine(t *testing.T) {
	base, cap := 100*time.Millisecond, 400*time.Millisecond
	h := newHealth(3, base, cap, 1)
	now := time.Now()

	if got := h.snapshot(); got != StateHealthy {
		t.Fatalf("initial state %v", got)
	}
	if !h.allow() || !h.probeDue(now) {
		t.Fatal("healthy peer must allow calls and probes")
	}

	if from, to, changed := h.onFailure(now); !changed || from != StateHealthy || to != StateSuspect {
		t.Fatalf("first failure: %v -> %v (changed=%v)", from, to, changed)
	}
	if !h.allow() {
		t.Fatal("suspect peer must still take regular calls")
	}
	if _, _, changed := h.onFailure(now); changed {
		t.Fatal("second failure below threshold must not transition")
	}
	if from, to, changed := h.onFailure(now); !changed || from != StateSuspect || to != StateDown {
		t.Fatalf("threshold failure: %v -> %v (changed=%v)", from, to, changed)
	}
	if h.allow() {
		t.Fatal("breaker must be open for a down peer")
	}
	if h.probeDue(now) {
		t.Fatal("down peer must not be probed before its backoff expires")
	}
	if !h.probeDue(now.Add(base + time.Nanosecond)) {
		t.Fatal("down peer must be probed once the backoff expires")
	}

	// Failed probes grow the backoff exponentially, within [d/2, d], capped.
	prev := base
	for i := 0; i < 5; i++ {
		h.onFailure(now)
		next := prev * 2
		if next > cap {
			next = cap
		}
		h.mu.Lock()
		backoff, retryAt := h.backoff, h.retryAt
		h.mu.Unlock()
		if backoff != next {
			t.Fatalf("failure %d: backoff %v, want %v", i, backoff, next)
		}
		d := retryAt.Sub(now)
		if d < next/2 || d > next {
			t.Fatalf("failure %d: jittered retry in %v, want [%v, %v]", i, d, next/2, next)
		}
		prev = next
	}

	if from, to, changed := h.onSuccess(); !changed || from != StateDown || to != StateHealthy {
		t.Fatalf("success: %v -> %v (changed=%v)", from, to, changed)
	}
	if !h.allow() {
		t.Fatal("breaker must close after a successful probe")
	}
	h.mu.Lock()
	fails, backoff := h.fails, h.backoff
	h.mu.Unlock()
	if fails != 0 || backoff != 0 {
		t.Fatalf("success must reset the detector: fails=%d backoff=%v", fails, backoff)
	}
}

// bareNode builds a cache+Node pair with the given config (Listen filled
// in, and Cache when the config has none), for tests that drive the peer
// tier directly.
func bareNode(t *testing.T, cfg Config) (*cache.Cache, *Node) {
	t.Helper()
	if cfg.Cache == nil {
		eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Cache, err = cache.New(cache.Options{Engine: eng, Shards: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	c := cfg.Cache
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return c, n
}

// driveDown hammers the peer until its breaker opens.
func driveDown(t *testing.T, n *Node, addr string) {
	t.Helper()
	p := n.peerFor(addr)
	if p == nil {
		t.Fatalf("no peer %s", addr)
	}
	for i := 0; i < 2*defaultFailureThreshold; i++ {
		if p.health.snapshot() == StateDown {
			return
		}
		_, _ = p.call(msgPing, &pingMeta{}, nil, nil)
	}
	if p.health.snapshot() != StateDown {
		t.Fatalf("peer %s never went down: %v", addr, p.health.snapshot())
	}
}

// TestBreakerFailFast: once a dead peer is marked down, the fetch fallback
// costs ~0 — no dial, no CallTimeout — and the stats show breaker skips
// plus the per-peer down gauge. A probe-driven recovery closes the breaker.
func TestBreakerFailFast(t *testing.T) {
	quiet := func(string, ...any) {}
	_, a := bareNode(t, Config{ProbeInterval: -1, Logf: quiet,
		DialTimeout: 200 * time.Millisecond, CallTimeout: 200 * time.Millisecond})
	cb, b := bareNode(t, Config{ProbeInterval: -1, Logf: quiet})
	join(a, b)
	key := keyOwnedBy(t, a.Ring(), b.Addr())
	bAddr := b.Addr()

	// Healthy baseline: the fetch round-trips (a miss, but over the wire).
	if _, ok := a.Fetch(t.Context(), key); ok {
		t.Fatal("unexpected remote hit")
	}
	if st := a.Snapshot(); st.PeersHealthy != 1 || st.PeersDown != 0 {
		t.Fatalf("gauges before kill: %+v", st)
	}

	b.Close() // SIGKILL-shaped: the listener and every conn die
	driveDown(t, a, bAddr)

	if states := a.PeerStates(); states[bAddr] != StateDown {
		t.Fatalf("peer states after kill: %v", states)
	}
	if st := a.Snapshot(); st.PeersDown != 1 {
		t.Fatalf("down gauge: %+v", st)
	}

	// Fail-fast: with the breaker open the fetch path must not dial at
	// all. Allow a generous margin for a loaded CI box — the regression
	// being guarded against is the 200ms CallTimeout (or a 2s default).
	before := a.Snapshot().BreakerSkips
	start := time.Now()
	const rounds = 50
	for i := 0; i < rounds; i++ {
		if _, ok := a.Fetch(t.Context(), key); ok {
			t.Fatal("fetch succeeded against a dead peer")
		}
	}
	elapsed := time.Since(start)
	if avg := elapsed / rounds; avg > time.Millisecond {
		t.Fatalf("breaker-open fetch averaged %v, want < 1ms", avg)
	}
	if got := a.Snapshot().BreakerSkips; got < before+rounds {
		t.Fatalf("breaker skips %d, want >= %d", got, before+rounds)
	}

	// Recovery: a fresh node on the same address; the probe's half-open
	// trial closes the breaker.
	_, b2 := bareNode(t, Config{ProbeInterval: -1, Logf: quiet, Advertise: bAddr, Listen: bAddr})
	_ = b2
	p := a.peerFor(bAddr)
	deadline := time.Now().Add(5 * time.Second)
	for p.health.snapshot() != StateHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("peer never recovered: %v", p.health.snapshot())
		}
		a.probePeers(time.Now().Add(time.Hour)) // past any backoff
		time.Sleep(10 * time.Millisecond)
	}
	_ = cb
}

// TestPeerTransitionsLoggedOnce: hammering a dead peer logs each state
// transition exactly once, not once per failed call.
func TestPeerTransitionsLoggedOnce(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	_, a := bareNode(t, Config{ProbeInterval: -1, Logf: logf,
		DialTimeout: 100 * time.Millisecond, CallTimeout: 100 * time.Millisecond})
	_, b := bareNode(t, Config{ProbeInterval: -1, Logf: func(string, ...any) {}})
	join(a, b)
	bAddr := b.Addr()
	b.Close()

	p := a.peerFor(bAddr)
	for i := 0; i < 10; i++ { // far more calls than transitions
		_, _ = p.call(msgPing, &pingMeta{}, nil, nil)
	}
	mu.Lock()
	defer mu.Unlock()
	count := func(sub string) int {
		n := 0
		for _, l := range lines {
			if strings.Contains(l, sub) {
				n++
			}
		}
		return n
	}
	if got := count("healthy -> suspect"); got != 1 {
		t.Fatalf("healthy->suspect logged %d times: %q", got, lines)
	}
	if got := count("suspect -> down"); got != 1 {
		t.Fatalf("suspect->down logged %d times: %q", got, lines)
	}
}

// TestPoisonedConnNeverPooled: a connection that errors mid-frame (a cut
// while writing) is closed, never returned to the pool — the next call
// dials fresh instead of inheriting a broken pipe.
func TestPoisonedConnNeverPooled(t *testing.T) {
	quiet := func(string, ...any) {}
	inj := fault.NewInjector(42)
	_, a := bareNode(t, Config{ProbeInterval: -1, Logf: quiet, Dial: inj.Dialer("A"),
		DialTimeout: 500 * time.Millisecond, CallTimeout: 500 * time.Millisecond})
	_, b := bareNode(t, Config{ProbeInterval: -1, Logf: quiet})
	join(a, b)
	bAddr := b.Addr()
	p := a.peerFor(bAddr)
	idleLen := func() int {
		p.mu.Lock()
		defer p.mu.Unlock()
		return len(p.idle)
	}

	// Warm the pool with one healthy round trip.
	key := keyOwnedBy(t, a.Ring(), bAddr)
	a.Fetch(t.Context(), key)
	if got := idleLen(); got != 1 {
		t.Fatalf("pool after healthy call: %d conns, want 1", got)
	}

	// Cut the pooled connection mid-frame on its next use: the call must
	// fail AND the poisoned conn must not be pooled again.
	inj.Set("A", bAddr, fault.Rule{CutAfter: 3})
	if _, ok := a.Fetch(t.Context(), key); ok {
		t.Fatal("fetch succeeded over a cut connection")
	}
	if got := idleLen(); got != 0 {
		t.Fatalf("poisoned conn returned to the pool: %d idle", got)
	}
	if st := a.Snapshot(); st.FetchErrors == 0 {
		t.Fatalf("cut not recorded: %+v", st)
	}

	// Heal: the next call dials a fresh connection and succeeds.
	inj.Heal()
	if _, ok := a.Fetch(t.Context(), key); ok {
		t.Fatal("unexpected remote hit") // still a miss — but over a live pipe
	}
	if st := a.Snapshot(); st.RemoteMisses == 0 {
		t.Fatalf("healed fetch did not round-trip: %+v", st)
	}
	if got := idleLen(); got != 1 {
		t.Fatalf("pool after heal: %d conns, want 1", got)
	}
}

// TestBroadcastToDownPeerIsCounted: a strong-mode write whose broadcast
// misses a dead peer still returns nil — the writer has nothing to act on —
// and the miss is counted, for the operator and for the peer's quarantine
// on rejoin.
func TestBroadcastToDownPeerIsCounted(t *testing.T) {
	quiet := func(string, ...any) {}
	capW := analysis.WriteCapture{Query: analysis.Query{
		SQL: "UPDATE ct0 SET a = ? WHERE b = ?", Args: []memdb.Value{int64(1), int64(2)}}}
	_, c := bareNode(t, Config{ProbeInterval: -1, Logf: quiet,
		DialTimeout: 200 * time.Millisecond, CallTimeout: 200 * time.Millisecond})
	_, d := bareNode(t, Config{ProbeInterval: -1, Logf: quiet})
	join(c, d)
	d.Close()
	if err := c.BroadcastWrite(capW); err != nil {
		t.Fatalf("broadcast to a dead peer must not error: %v", err)
	}
	if st := c.Snapshot(); st.InvBroadcastFailures == 0 {
		t.Fatalf("failure not counted: %+v", st)
	}
}

// TestPartitionQuarantineOnRejoin is the §3.2-under-failure core: a node
// partitioned away during a write holds a stale page, and the first probe
// after heal — carrying the writer's broadcast watermark — forces it to
// quarantine-flush before anything can read the stale entry.
func TestPartitionQuarantineOnRejoin(t *testing.T) {
	quiet := func(string, ...any) {}
	inj := fault.NewInjector(7)
	_, a := bareNode(t, Config{ProbeInterval: -1, Logf: quiet, Dial: inj.Dialer("A"),
		DialTimeout: 200 * time.Millisecond, CallTimeout: 200 * time.Millisecond})
	cb, b := bareNode(t, Config{ProbeInterval: -1, Logf: quiet})
	join(a, b)
	bAddr := b.Addr()

	// B caches a page that depends on (ct0, b=2).
	deps := []analysis.Query{{SQL: "SELECT a FROM ct0 WHERE b = ?", Args: []memdb.Value{int64(2)}}}
	key := "/stale?x=1"
	cb.Insert(key, []byte("pre-write"), "text/html", deps, 0)

	// Partition A -> B, then write on A: the broadcast cannot reach B.
	inj.Set("A", bAddr, fault.Rule{Drop: true})
	w := analysis.WriteCapture{Query: analysis.Query{
		SQL: "UPDATE ct0 SET a = ? WHERE b = ?", Args: []memdb.Value{int64(9), int64(2)}}}
	if err := a.BroadcastWrite(w); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if !cb.Contains(key) {
		t.Fatal("partitioned node cannot have applied the invalidation yet")
	}

	// Heal, then probe: the ping watermark exposes B's gap.
	inj.Heal()
	a.probePeers(time.Now().Add(time.Hour)) // ignore any backoff gate
	if cb.Contains(key) {
		t.Fatal("stale page survived rejoin: quarantine flush did not run")
	}
	if st := b.Snapshot(); st.GapFlushes != 1 {
		t.Fatalf("gap flushes: %+v", st)
	}

	// Steady state after the flush: the next sequenced broadcast applies
	// normally, with no spurious quarantine.
	cb.Insert("/fresh?x=2", []byte("post-heal"), "text/html",
		[]analysis.Query{{SQL: "SELECT a FROM ct1 WHERE b = ?", Args: []memdb.Value{int64(5)}}}, 0)
	if err := a.BroadcastWrite(w); err != nil {
		t.Fatalf("post-heal broadcast: %v", err)
	}
	if !cb.Contains("/fresh?x=2") {
		t.Fatal("non-overlapping page flushed: spurious quarantine after rejoin")
	}
	if st := b.Snapshot(); st.GapFlushes != 1 {
		t.Fatalf("spurious gap flush: %+v", st)
	}
}

// TestStaleTransferRejection: a peer that missed invalidations must not
// export state into healthy nodes — fetch responses and replica offers
// from a gapped peer are refused by the applied-vector check.
func TestStaleTransferRejection(t *testing.T) {
	quiet := func(string, ...any) {}
	inj := fault.NewInjector(11)
	_, a := bareNode(t, Config{ProbeInterval: -1, Logf: quiet, Dial: inj.Dialer("A"),
		DialTimeout: 200 * time.Millisecond, CallTimeout: 200 * time.Millisecond})
	cb, b := bareNode(t, Config{ProbeInterval: -1, Logf: quiet,
		DialTimeout: 200 * time.Millisecond, CallTimeout: 200 * time.Millisecond})
	join(a, b)
	bAddr := b.Addr()

	// B holds a page for a key B owns; A will later try to fetch it.
	key := keyOwnedBy(t, a.Ring(), bAddr)
	deps := []analysis.Query{{SQL: "SELECT a FROM ct0 WHERE b = ?", Args: []memdb.Value{int64(2)}}}
	cb.Insert(key, []byte("pre-write"), "text/html", deps, 0)

	// A's write cannot reach B: B now holds a stale copy and a gap.
	inj.Set("A", bAddr, fault.Rule{Drop: true})
	w := analysis.WriteCapture{Query: analysis.Query{
		SQL: "UPDATE ct0 SET a = ? WHERE b = ?", Args: []memdb.Value{int64(9), int64(2)}}}
	if err := a.BroadcastWrite(w); err != nil {
		t.Fatalf("broadcast: %v", err)
	}

	// Heal the dials only (no probe yet): B has not flushed. A's fetch
	// reaches B, but the response's applied vector shows B behind on A's
	// own broadcasts — the page must be refused.
	inj.Heal()
	if _, ok := a.Fetch(t.Context(), key); ok {
		t.Fatal("fetched a stale page from a gapped peer")
	}
	if st := a.Snapshot(); st.StaleFetchRejects != 1 {
		t.Fatalf("stale fetch not rejected: %+v", st)
	}

	// The offer direction: B (still gapped) replicates to A; A refuses.
	keyA := keyOwnedBy(t, b.Ring(), a.Addr())
	b.Offer(keyA, []byte("maybe-stale"), "text/html", deps, 0)
	if st := a.Snapshot(); st.StalePutRejects != 1 {
		t.Fatalf("stale offer not rejected: %+v", st)
	}
	if st := b.Snapshot(); st.OffersRejected != 1 {
		t.Fatalf("offerer did not record the rejection: %+v", st)
	}
}

// TestClusterWriteWithDeadPeerOutcome: end-to-end through the weave, a
// strong-mode write whose peer died mid-run returns HTTP 200 with outcome
// "write", and its local invalidation still ran.
func TestClusterWriteWithDeadPeerOutcome(t *testing.T) {
	quiet := func(string, ...any) {}
	nodes := newCluster(t, 2, Config{ProbeInterval: -1, Logf: quiet,
		DialTimeout: 200 * time.Millisecond, CallTimeout: 200 * time.Millisecond})

	// Warm the writer's local cache so the write has a dependent page to
	// invalidate locally.
	nodes[0].get(t, "/stock?product=p1")
	if !nodes[0].cache.Contains("/stock?product=p1") {
		t.Fatal("warm-up page not cached")
	}

	nodes[1].node.Close()
	_, outcome := nodes[0].get(t, "/restock?product=p1&units=6") // get fails the test on non-200
	if outcome != string(weave.OutcomeWrite) {
		t.Fatalf("write with a dead peer: outcome %q, want %q", outcome, weave.OutcomeWrite)
	}
	if totals := nodes[0].woven.Stats().Totals(); totals.Writes != 1 {
		t.Fatalf("stats: writes=%d, want 1", totals.Writes)
	}
	if nodes[0].cache.Contains("/stock?product=p1") {
		t.Fatal("write with a dead peer left the local cache stale")
	}
}

// TestClusterWriterSurvivesPeerDeathMidBroadcast: a peer dying under a
// write costs the writer nothing — HTTP 200, outcome "write", the failure
// surfaced only in the node stats.
func TestClusterWriterSurvivesPeerDeathMidBroadcast(t *testing.T) {
	quiet := func(string, ...any) {}
	nodes := newCluster(t, 3, Config{ProbeInterval: -1, Logf: quiet,
		DialTimeout: 300 * time.Millisecond, CallTimeout: 300 * time.Millisecond})

	// Warm all nodes so the write has something to invalidate everywhere.
	for _, tn := range nodes {
		tn.get(t, "/stock?product=p2")
	}
	nodes[2].node.Close() // dies before (≈ during) the broadcast

	start := time.Now()
	_, outcome := nodes[0].get(t, "/restock?product=p2&units=9")
	if outcome != string(weave.OutcomeWrite) {
		t.Fatalf("outcome %q", outcome)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("write blocked %v on a dead peer", elapsed)
	}
	if st := nodes[0].node.Snapshot(); st.InvBroadcastFailures == 0 {
		t.Fatalf("broadcast failure not surfaced: %+v", st)
	}
	// The survivor applied the invalidation.
	if nodes[1].cache.Contains("/stock?product=p2") {
		t.Fatal("surviving peer kept the stale page")
	}
}

// TestClusterColdRestartRejoin: a node that died and restarted cold (empty
// cache, fresh sequence state) must not serve stale state and must rejoin
// the warm path cleanly — its first contact quarantine-flushes (a no-op on
// the empty cache) and subsequent broadcasts apply normally.
func TestClusterColdRestartRejoin(t *testing.T) {
	quiet := func(string, ...any) {}
	cfg := Config{ProbeInterval: -1, Logf: quiet,
		DialTimeout: 300 * time.Millisecond, CallTimeout: 300 * time.Millisecond}
	_, a := bareNode(t, cfg)
	_, b := bareNode(t, cfg)
	join(a, b)
	bAddr := b.Addr()

	w := analysis.WriteCapture{Query: analysis.Query{
		SQL: "UPDATE ct0 SET a = ? WHERE b = ?", Args: []memdb.Value{int64(1), int64(2)}}}
	if err := a.BroadcastWrite(w); err != nil {
		t.Fatal(err)
	}

	b.Close()
	// Writes continue while B is dead; its sequence record stops at 1.
	if err := a.BroadcastWrite(w); err != nil {
		t.Fatal(err)
	}
	driveDown(t, a, bAddr)

	// Cold restart on the same address.
	restarted := cfg
	restarted.Listen = bAddr
	restarted.Advertise = bAddr
	cb2, b2 := bareNode(t, restarted)
	b2.SetPeers([]string{a.Addr()})

	// First contact: A's probe revives the peer and its watermark makes B2
	// flush (trivially, it is empty) and sync its counter.
	deadline := time.Now().Add(5 * time.Second)
	for a.peerFor(bAddr).health.snapshot() != StateHealthy {
		if time.Now().After(deadline) {
			t.Fatal("restarted peer never revived")
		}
		a.probePeers(time.Now().Add(time.Hour))
		time.Sleep(10 * time.Millisecond)
	}

	// Rejoined warm path: B2 caches a page; a non-overlapping write from A
	// must NOT flush it (no spurious quarantine)...
	cb2.Insert("/warm?x=1", []byte("fresh"), "text/html",
		[]analysis.Query{{SQL: "SELECT a FROM ct1 WHERE b = ?", Args: []memdb.Value{int64(3)}}}, 0)
	if err := a.BroadcastWrite(w); err != nil { // ct0: does not overlap ct1
		t.Fatal(err)
	}
	if !cb2.Contains("/warm?x=1") {
		t.Fatal("spurious quarantine on a sequenced broadcast after rejoin")
	}
	// ...and an overlapping write removes exactly it.
	w2 := analysis.WriteCapture{Query: analysis.Query{
		SQL: "UPDATE ct1 SET a = ? WHERE b = ?", Args: []memdb.Value{int64(4), int64(3)}}}
	if err := a.BroadcastWrite(w2); err != nil {
		t.Fatal(err)
	}
	if cb2.Contains("/warm?x=1") {
		t.Fatal("overlapping broadcast did not invalidate the rejoined node's page")
	}
}
