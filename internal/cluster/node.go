package cluster

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/telemetry"
	"autowebcache/internal/weave"
)

// Deployment note: the tier keeps the CACHES consistent — it assumes the
// paper's architecture, where every web-tier node queries one shared
// database. The bundled servers embed a per-process memdb instead, so in
// `make cluster-demo` each node's generated pages reflect its own database
// copy and writes diverge across nodes; the cache-layer guarantees
// (ownership, fetch, cluster-wide invalidation) are exactly what a
// shared-database deployment would get.

// Config configures a Node.
type Config struct {
	// Listen is the peer-protocol listen address (e.g. "127.0.0.1:9001", or
	// "127.0.0.1:0" in tests). Its host:port — as configured — is the
	// node's ring identity, so it must be the exact string the other nodes
	// carry in their Peers lists, and peers must be able to dial it.
	// Required.
	Listen string
	// Advertise overrides the ring identity when Listen is not the address
	// peers dial (e.g. listening on all interfaces or behind NAT): set it
	// to the exact string the other nodes carry in their Peers lists.
	Advertise string
	// Peers are the OTHER nodes' peer addresses; the node adds itself. An
	// empty list is pure local mode: fetches miss without touching the
	// network and broadcasts are no-ops.
	Peers []string
	// Cache is the process's page cache the node serves and invalidates.
	// Required.
	Cache *cache.Cache
	// DialTimeout and CallTimeout bound peer dials and round trips
	// (default 2s each). A slow or dead peer costs at most one CallTimeout
	// per operation, after which it is treated as a miss — and once the
	// failure detector marks it down, ~0 (breaker open, no dial).
	DialTimeout time.Duration
	CallTimeout time.Duration
	// FailureThreshold is the consecutive-failure count at which a peer is
	// marked down and its breaker opens (0 = 3; first failure always marks
	// it suspect).
	FailureThreshold int
	// ProbeInterval is the background health-probe cadence: healthy and
	// suspect peers are pinged every interval, down peers are redialed on a
	// jittered exponential backoff bounded by ReconnectBackoff and
	// MaxReconnectBackoff. The probe also carries this node's broadcast
	// watermark, which is what forces a rejoining peer to quarantine-flush.
	// 0 = 250ms; negative disables the probe loop.
	ProbeInterval time.Duration
	// ReconnectBackoff / MaxReconnectBackoff bound a down peer's jittered
	// exponential redial backoff (0 = 100ms / 5s).
	ReconnectBackoff    time.Duration
	MaxReconnectBackoff time.Duration
	// Dial overrides the peer dialer (fault injection, tests); nil = TCP.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// WrapListener wraps the peer listener after binding (fault injection,
	// tests); nil = none.
	WrapListener func(net.Listener) net.Listener
	// SeqJournal, when set, persists the node's invalidation-sequencing
	// state — the per-origin applied counters and this node's own
	// completed-broadcast watermark — and restores it at construction, so a
	// node restarting with a warm cache tier rejoins without a quarantine
	// flush when it provably missed nothing. The disk cache tier
	// (cache/l2.Store) implements this; nil keeps the pre-journal behavior:
	// every restart looks like a gap and the first peer watermark forces a
	// flush. Writes are buffered — losing the latest records merely makes
	// the next boot conservative (quarantine), never stale.
	SeqJournal SeqJournal
	// Logf receives peer state transitions — logged once per transition,
	// never per failed call. nil = the standard library logger.
	Logf func(format string, args ...any)
	// Generate resolves a miss a peer forwarded to this node as the key's
	// owner (see Resolve): weave.Woven.ResolvePeer, which answers from the
	// cache or runs the handler here and never forwards. An answer that
	// takes longer than half of CallTimeout is not waited for: the
	// generation finishes here in the background and the requester,
	// answered in time, generates locally, so a slow handler never reads
	// as a failed peer. nil: this node answers forwarded misses from its
	// cache only.
	Generate func(ctx context.Context, key string, req weave.PeerRequest) (weave.Answer, bool)
}

// SeqJournal persists invalidation-sequencing watermarks across restarts.
// RecordApplied is called after a peer invalidation (or flush, or covering
// quarantine) has been applied locally; RecordBroadcast after one of this
// node's own broadcasts completes. RestoreSeqs returns the journaled state
// at boot. Implementations must tolerate duplicate and regressing calls
// (monotonic guard) and must never block on durable I/O — the caller is on
// the invalidation hot path.
type SeqJournal interface {
	RecordApplied(origin string, seq uint64)
	RecordBroadcast(seq uint64)
	RestoreSeqs() (applied map[string]uint64, ownSeq uint64)
}

// Defaults for the health machinery (overridable via Config).
const (
	defaultFailureThreshold    = 3
	defaultProbeInterval       = 250 * time.Millisecond
	defaultReconnectBackoff    = 100 * time.Millisecond
	defaultMaxReconnectBackoff = 5 * time.Second
)

// Stats are cumulative node counters (plus point-in-time peer gauges).
type Stats struct {
	RemoteHits           uint64 // misses the key's owner answered: from its cache, or by running the handler for this request
	RemoteMisses         uint64 // misses the key's owner did not answer (not held, refused, unreachable, or discarded here)
	FetchAborts          uint64 // owner answers discarded: a write intersecting the page raced the round trip or was still open
	FetchErrors          uint64 // peer calls that failed mid-fetch
	OffersSent           uint64 // pages replicated to their owner
	OffersRejected       uint64 // offers an owner's byte budget refused
	InvSent              uint64 // invalidation broadcasts sent (per peer): one frame per write request
	InvBroadcastFailures uint64 // invalidation/flush sends a peer never applied (down, partitioned, timed out)
	PingFailures         uint64 // background health probes that failed
	BreakerSkips         uint64 // peer calls short-circuited by an open breaker (no dial paid)
	GapFlushes           uint64 // quarantine flushes forced by a detected invalidation-sequence gap
	StaleFetchRejects    uint64 // owner answers discarded: the owner had missed invalidations we had started before the call
	StalePutRejects      uint64 // replica offers refused: the offerer had missed invalidations we applied
	GetsServed           uint64 // peer gets (forwarded misses and fetches) this node answered, found or not
	GetsGenerated        uint64 // peer misses this node answered by running the handler
	PutsApplied          uint64 // replica pages this node accepted
	PutsRejected         uint64 // replica pages this node refused (over budget, stale, or overlapping an open write)
	InvApplied           uint64 // peer write invalidations this node applied, one per capture (a frame may carry several)
	FlushApplied         uint64 // peer flushes this node applied
	PagesRemoved         uint64 // pages removed by peer invalidations
	PeersHealthy         int    // gauge: peers currently healthy
	PeersSuspect         int    // gauge: peers currently suspect
	PeersDown            int    // gauge: peers currently down (breaker open)

	// Latency distributions of the three peer operations, end to end: Fetch
	// (the owner round trip after a local miss — Resolve or Fetch,
	// successful or not, including an owner's generation — but only calls
	// that dialed the owner; breaker-skipped ones are counted by
	// BreakerSkips and kept out of the distribution), Offer (replication
	// to the key's owner) and invalidation broadcast (including its serializing
	// bcastMu wait — queueing behind another broadcast IS write latency the
	// operator needs to see).
	FetchLatency     telemetry.HistSnapshot
	OfferLatency     telemetry.HistSnapshot
	BroadcastLatency telemetry.HistSnapshot
}

// Node is one member of the cache cluster. It implements the weave's
// Remote (Fetch/Offer, with the Resolver method Resolve) and the cache's
// RemoteInvalidator
// (BroadcastWrite/BroadcastFlush, with the batch method BroadcastWrites).
// Create with New, then Start; Start registers the node on its cache, so
// every InvalidateWrite on the local cache fans out cluster-wide from then
// on.
type Node struct {
	cfg  Config
	self string // resolved listen address = ring identity

	ring atomic.Pointer[Ring]

	mu    sync.Mutex
	peers map[string]*peer // addr -> client (never contains self)

	srv *server

	// bcastMu serializes this node's invalidation broadcasts end to end, so
	// every peer observes this origin's sequence numbers strictly in order:
	// a receiver-side gap can only mean a genuinely missed broadcast, never
	// reordering. seqNext is the next broadcast's number (under bcastMu);
	// seqDone is the completed-broadcast watermark pings carry — stored only
	// after every peer send for that seq has returned.
	seqNext uint64
	bcastMu sync.Mutex
	seqDone atomic.Uint64

	// started tracks, per origin node, the last broadcast seq this node has
	// begun to apply (or been flushed past); applied, the last one it has
	// finished applying. A transfer from a peer is judged against started —
	// a peer that has not finished what this node began may hold a page it
	// removes — and this node's own transfers advertise applied. Both are
	// guarded by seqMu.
	seqMu   sync.Mutex
	started map[string]uint64
	applied map[string]uint64

	logf      func(format string, args ...any)
	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once

	// genCtx is the context of the generations this node runs for peers
	// (Config.Generate); Close cancels it and waits for them on genWG.
	genCtx    context.Context
	genCancel context.CancelFunc
	genWG     sync.WaitGroup

	remoteHits        atomic.Uint64
	remoteMisses      atomic.Uint64
	fetchAborts       atomic.Uint64
	fetchErrors       atomic.Uint64
	offersSent        atomic.Uint64
	offersRejected    atomic.Uint64
	invSent           atomic.Uint64
	invBcastFailures  atomic.Uint64
	pingFailures      atomic.Uint64
	breakerSkips      atomic.Uint64
	gapFlushes        atomic.Uint64
	staleFetchRejects atomic.Uint64
	stalePutRejects   atomic.Uint64
	getsServed        atomic.Uint64
	getsGenerated     atomic.Uint64
	putsApplied       atomic.Uint64
	putsRejected      atomic.Uint64
	invApplied        atomic.Uint64
	flushApplied      atomic.Uint64
	pagesRemoved      atomic.Uint64

	fetchLat telemetry.DurationHist
	offerLat telemetry.DurationHist
	bcastLat telemetry.DurationHist
}

// New creates a Node. Call Start to listen and join the ring.
func New(cfg Config) (*Node, error) {
	if cfg.Cache == nil {
		return nil, fmt.Errorf("cluster: Config.Cache is required")
	}
	if cfg.Listen == "" {
		return nil, fmt.Errorf("cluster: Config.Listen is required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 2 * time.Second
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = defaultFailureThreshold
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = defaultProbeInterval
	}
	if cfg.ReconnectBackoff <= 0 {
		cfg.ReconnectBackoff = defaultReconnectBackoff
	}
	if cfg.MaxReconnectBackoff <= 0 {
		cfg.MaxReconnectBackoff = defaultMaxReconnectBackoff
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	n := &Node{
		cfg:       cfg,
		peers:     make(map[string]*peer),
		started:   make(map[string]uint64),
		applied:   make(map[string]uint64),
		logf:      logf,
		stopProbe: make(chan struct{}),
	}
	n.genCtx, n.genCancel = context.WithCancel(context.Background())
	if cfg.SeqJournal != nil {
		// Warm rejoin: resume the applied counters and own-broadcast
		// watermark where the journal left them. A peer watermark ahead of
		// the restored counter still quarantines — only invalidations the
		// journal proves were applied are skipped.
		applied, own := cfg.SeqJournal.RestoreSeqs()
		for origin, seq := range applied {
			n.started[origin], n.applied[origin] = seq, seq
		}
		n.seqNext = own
		n.seqDone.Store(own)
	}
	return n, nil
}

// Start listens on the configured address, builds the ring from self +
// Peers, and attaches the node to its cache as the remote invalidator.
func (n *Node) Start() error {
	ln, err := net.Listen("tcp", n.cfg.Listen)
	if err != nil {
		return fmt.Errorf("cluster: listen %s: %w", n.cfg.Listen, err)
	}
	self, err := ringIdentity(n.cfg, ln.Addr().String())
	if err != nil {
		ln.Close()
		return err
	}
	n.self = self
	if n.cfg.WrapListener != nil {
		ln = n.cfg.WrapListener(ln)
	}
	n.srv = newServer(ln, n)
	n.SetPeers(n.cfg.Peers)
	n.cfg.Cache.SetRemote(n)
	if n.cfg.ProbeInterval > 0 {
		n.probeWG.Add(1)
		go n.probeLoop(n.cfg.ProbeInterval)
	}
	return nil
}

// ringIdentity picks the node's ring identity. Consistent hashing places
// keys by the *string* identity, so every node must use for itself exactly
// the string its peers dial; a silent mismatch (":9091" resolving to
// "[::]:9091" while peers carry "127.0.0.1:9091") would make the nodes
// disagree on ownership with no error anywhere.
func ringIdentity(cfg Config, resolved string) (string, error) {
	if cfg.Advertise != "" {
		return cfg.Advertise, nil
	}
	host, port, err := net.SplitHostPort(cfg.Listen)
	if err != nil {
		return "", fmt.Errorf("cluster: bad listen address %q: %w", cfg.Listen, err)
	}
	unspecified := host == "" || host == "0.0.0.0" || host == "::"
	if !unspecified && port != "0" {
		// The configured address is concrete: use it verbatim, so it matches
		// the peers' configured strings byte for byte.
		return cfg.Listen, nil
	}
	if unspecified && len(cfg.Peers) > 0 {
		return "", fmt.Errorf("cluster: listen address %q has no routable host for the ring identity; "+
			"listen on an explicit host:port or set Config.Advertise", cfg.Listen)
	}
	// Port 0 (tests) or a solo node: the resolved address is fine.
	return resolved, nil
}

// Close detaches the node from its cache, stops the server, cancels and
// waits for the generations it runs for peers, and drops every peer
// connection.
func (n *Node) Close() error {
	n.closeOnce.Do(func() { close(n.stopProbe) })
	n.probeWG.Wait()
	n.cfg.Cache.SetRemote(nil)
	if n.srv != nil {
		n.srv.close()
	}
	n.genCancel()
	n.genWG.Wait()
	n.mu.Lock()
	peers := n.peers
	n.peers = make(map[string]*peer)
	n.mu.Unlock()
	for _, p := range peers {
		p.close()
	}
	return nil
}

// Addr returns the node's resolved peer address (its ring identity) —
// useful when Listen was ":0".
func (n *Node) Addr() string { return n.self }

// Ring returns the current membership snapshot.
func (n *Node) Ring() *Ring { return n.ring.Load() }

// SetPeers replaces the peer set (self is implicit) and rebuilds the ring —
// the runtime membership-change entry point: removing a dead node here
// rebalances its keyspace onto the survivors; adding one takes over its
// ring arcs. Existing connections to retained peers are kept.
func (n *Node) SetPeers(peers []string) {
	n.mu.Lock()
	next := make(map[string]*peer, len(peers))
	for _, addr := range peers {
		if addr == "" || addr == n.self {
			continue
		}
		if p, ok := n.peers[addr]; ok {
			next[addr] = p
			delete(n.peers, addr)
			continue
		}
		h := newHealth(n.cfg.FailureThreshold, n.cfg.ReconnectBackoff,
			n.cfg.MaxReconnectBackoff, healthSeed(n.self+"|"+addr))
		p := newPeer(addr, n.cfg.DialTimeout, n.cfg.CallTimeout, n.cfg.Dial, h)
		p.onChange = n.peerTransition
		next[addr] = p
	}
	dropped := n.peers
	n.peers = next
	members := make([]string, 0, len(next)+1)
	members = append(members, n.self)
	for addr := range next {
		members = append(members, addr)
	}
	n.mu.Unlock()
	n.ring.Store(NewRing(members, DefaultVNodes))
	for _, p := range dropped {
		p.close()
	}
}

// peerFor returns the client for addr, or nil for self/unknown members.
func (n *Node) peerFor(addr string) *peer {
	n.mu.Lock()
	p := n.peers[addr]
	n.mu.Unlock()
	return p
}

// ownerPeer returns the client for key's owner under the current ring, or
// nil when this node owns the key itself (or knows no ring yet).
func (n *Node) ownerPeer(key string) *peer {
	r := n.ring.Load()
	if r == nil {
		return nil
	}
	return n.peerFor(r.Owner(key))
}

// Resolve implements weave.Resolver: after a local miss, send one get
// frame carrying the request to the key's owner, which answers from its
// cache or runs the handler for it (Config.Generate). A cacheable answer is
// inserted into the local cache with its dependency information — a replica
// that later local lookups hit directly and that invalidation broadcasts
// keep consistent — and the stored view is returned. The insert goes
// through the cache's epoch guard (cache.InsertSince) with the epoch read
// before the round trip, after the applied-vector check: a replica that a
// write it depends on raced, that overlaps a write still open on this
// node, or that the owner read before applying an invalidation this node
// had started before the call, is discarded (FetchAborts,
// StaleFetchRejects). An answer the owner could not cache is returned to
// be served once, never stored: its handler ran for this request and must
// not run again. ok=false means this node owns the key, the request is
// gone, the owner's breaker is open, or the owner failed, refused or
// answered with a page discarded here: the caller generates the page
// itself.
func (n *Node) Resolve(ctx context.Context, key string, req weave.PeerRequest) (a weave.Answer, ok bool) {
	defer func() {
		if ok {
			n.remoteHits.Add(1)
		} else {
			n.remoteMisses.Add(1)
		}
	}()
	p := n.ownerPeer(key)
	if p == nil || ctx.Err() != nil {
		// Self-owned (we already missed locally), no ring yet, or the
		// request is gone.
		return a, false
	}
	if !p.health.allow() {
		// Down owner: the breaker already paid the cost (none). The call
		// stays clock-free (the fail-fast guarantee) and out of the
		// fetch-latency distribution — it is visible as a BreakerSkip.
		n.breakerSkips.Add(1)
		return a, false
	}
	start := time.Now()
	defer func() { n.fetchLat.Observe(time.Since(start)) }()
	epoch0 := n.cfg.Cache.Epoch()
	// What the owner's vector must cover, snapshotted after epoch0: an
	// invalidation this node starts later opens its event after epoch0, so
	// the guarded insert below tests it against the page's dependencies
	// itself. Judging the owner against invalidations started during the
	// round trip — the owner's generation — would refuse pages no write
	// touched.
	mine := n.startedVector()
	var resp getRespMeta
	body, err := p.call(msgGet, &getMeta{Key: key, URI: req.URI, Cookie: req.Cookie}, nil, &resp)
	if err != nil {
		if err == errBreakerOpen {
			// The breaker opened between the pre-check above and the
			// call's own check — still a skip, not a fetch error.
			n.breakerSkips.Add(1)
		} else {
			n.fetchErrors.Add(1)
		}
		return a, false
	}
	if !resp.Found {
		return a, false
	}
	if !resp.Cacheable {
		// body is this call's own frame buffer: the caller may keep it.
		a.Page = cache.Page{Body: body, ContentType: resp.ContentType}
		a.Header, a.Status, a.Generated = resp.Header, int(resp.Status), resp.Generated
		return a, true
	}
	if behind(resp.Applied, mine) {
		// The owner had missed an invalidation this node had started to
		// apply before the call — its copy may predate that write. Treat
		// as a miss.
		n.staleFetchRejects.Add(1)
		return a, false
	}
	// If the local byte budget refuses the replica, the returned view is
	// still this call's servable copy — the page just stays remote-only
	// and the next miss asks again. The wire carries the identity body
	// only: variants (gzip, ETag) are derived state, so the insert
	// recomputes them under the local cache's own Options rather than
	// trusting the owner's — nodes may disagree on -encodings/-etag
	// without trading stale or mismatched variants.
	ttl := ttlFromNanos(resp.TTLNanos)
	pg, _, fresh := n.cfg.Cache.InsertSince(epoch0, key, body, resp.ContentType, resp.Deps, ttl)
	if !fresh {
		// The page may predate a write that already swept this cache or
		// that peers are still applying. Discard and regenerate.
		n.fetchAborts.Add(1)
		return a, false
	}
	// The answer carries the dependency set with the page: the weave
	// shares it with its flight, and as the key's owner for a peer whose
	// ring disagrees, it may ship it on (ResolvePeer).
	a.View = cache.View{Page: pg, Deps: resp.Deps, TTL: ttl}
	a.Status, a.Generated, a.Cacheable = http.StatusOK, resp.Generated, true
	return a, true
}

// Fetch implements weave.Remote: Resolve without the request, so the owner
// only looks in its cache and never generates. The weave calls it only for
// a Remote that hides Resolve (the benchmark's traced wrapper).
func (n *Node) Fetch(ctx context.Context, key string) (cache.Page, bool) {
	a, ok := n.Resolve(ctx, key, weave.PeerRequest{})
	return a.Page, ok
}

// Offer implements weave.Remote: replicate a locally generated page to the
// key's owner so the next fetch from any node finds it there. The weave
// calls it only for a Remote that hides Resolve (the benchmark's traced
// wrapper): with Resolve, the owner generates the pages its peers miss and
// nothing is offered. It is synchronous — the owner is written before Offer
// returns, so a write issued after this page's response cannot broadcast
// past an in-flight replica. (A write *concurrent* with the generating
// request can still land between the page's reads and this replication;
// that is the same insert-after-read window the single-node weave has
// always had, and the next write on the row clears it.) Errors are
// best-effort-ignored — a lost replica only costs a future remote miss.
// Self-owned keys are already stored locally; an empty peer set makes Offer
// a no-op.
func (n *Node) Offer(key string, body []byte, contentType string, deps []analysis.Query, ttl time.Duration) {
	start := time.Now()
	defer func() { n.offerLat.Observe(time.Since(start)) }()
	p := n.ownerPeer(key)
	if p == nil {
		return
	}
	req := &putMeta{Key: key, ContentType: contentType, TTLNanos: int64(ttl), Deps: deps, Applied: n.appliedVector()}
	var resp putRespMeta
	if _, err := p.call(msgPut, req, body, &resp); err == nil {
		if resp.OK {
			n.offersSent.Add(1)
		} else {
			// The owner's byte budget (or admission filter) refused the
			// replica; the page stays a local-only copy.
			n.offersRejected.Add(1)
		}
	}
}

// generate runs Config.Generate for a forwarded miss, waiting at most half
// the call timeout so the answer reaches the requester inside its own: a
// generation that takes longer finishes here in the background (its page is
// cached for the next request) while the requester, answered "not found",
// generates locally. A panicking handler is logged and refused, as net/http
// would contain it for a local request.
func (n *Node) generate(m *getMeta) (weave.Answer, bool) {
	type result struct {
		a  weave.Answer
		ok bool
	}
	done := make(chan result, 1)
	n.genWG.Add(1)
	go func() {
		defer n.genWG.Done()
		defer func() {
			if v := recover(); v != nil {
				n.logf("cluster: %s: generating %q for a peer panicked: %v", n.self, m.Key, v)
				done <- result{}
			}
		}()
		a, ok := n.cfg.Generate(n.genCtx, m.Key, weave.PeerRequest{URI: m.URI, Cookie: m.Cookie})
		done <- result{a, ok}
	}()
	t := time.NewTimer(n.cfg.CallTimeout / 2)
	defer t.Stop()
	select {
	case r := <-done:
		return r.a, r.ok
	case <-t.C:
		return weave.Answer{}, false
	}
}

// BroadcastWrites is the cache.RemoteInvalidator batch method: forward one
// write request's locally applied captures to every peer as one sequenced
// frame and wait for all of them (bounded by CallTimeout each, in parallel)
// before returning, so the caller's InvalidateWrite — and therefore the
// writer's HTTP response — is released only after the invalidation has
// been applied cluster-wide (§3.2). The error is always nil: a peer that
// missed the broadcast is counted (Stats.InvBroadcastFailures) and
// quarantine-flushes on rejoin, so the writer has nothing to act on.
func (n *Node) BroadcastWrites(ws []analysis.WriteCapture) error {
	n.broadcast(msgInv, func(seq uint64) meta { return &invMeta{Captures: ws, Origin: n.self, Seq: seq} })
	return nil
}

// BroadcastWrite implements cache.RemoteInvalidator: BroadcastWrites of one
// capture.
func (n *Node) BroadcastWrite(w analysis.WriteCapture) error {
	return n.BroadcastWrites([]analysis.WriteCapture{w})
}

// BroadcastFlush implements cache.RemoteInvalidator for full flushes
// (unanalysable writes fall back to flushing; the fallback must be
// cluster-wide too or peers would keep serving pages the origin dropped).
// The error is always nil, as for BroadcastWrite.
func (n *Node) BroadcastFlush() error {
	n.broadcast(msgFlush, func(seq uint64) meta { return &flushMeta{Origin: n.self, Seq: seq} })
	return nil
}

// broadcast sends one sequenced message to every peer in parallel and
// waits for the responses (or their timeouts). bcastMu serializes the
// node's broadcasts end to end — sequence numbers leave in order, so a
// receiver-side gap is proof of a missed message. A peer that cannot be
// reached (down, timed out, breaker open) is counted; it cannot serve
// stale state on rejoin because its sequence gap forces a quarantine
// flush, so the broadcast stays honest without failing the write.
func (n *Node) broadcast(typ byte, mkMeta func(seq uint64) meta) {
	start := time.Now()
	defer func() { n.bcastLat.Observe(time.Since(start)) }()
	n.bcastMu.Lock()
	defer n.bcastMu.Unlock()
	n.seqNext++
	seq := n.seqNext
	defer func() {
		n.seqDone.Store(seq)
		if n.cfg.SeqJournal != nil {
			n.cfg.SeqJournal.RecordBroadcast(seq)
		}
	}()
	n.mu.Lock()
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	if len(peers) == 0 {
		return
	}
	req := mkMeta(seq)
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			if _, err := p.call(typ, req, nil, nil); err != nil {
				n.invBcastFailures.Add(1)
				if err == errBreakerOpen {
					n.breakerSkips.Add(1)
				}
				return
			}
			n.invSent.Add(1)
		}(p)
	}
	wg.Wait()
}

// startApplied records, before it is applied, a seq observed from origin and
// reports whether it exposes a gap: broadcasts this node provably missed
// while down or partitioned. watermark=true for ping watermarks (everything
// <= seq has been broadcast, so our counter must already be there), false
// for inv/flush messages (seq is the message's own number; the previous one
// must have been applied). The counter always advances to seq — after the
// caller's quarantine flush the node is clean through seq by construction.
func (n *Node) startApplied(origin string, seq uint64, watermark bool) (gap bool) {
	if origin == "" || origin == n.self || seq == 0 {
		return false
	}
	n.seqMu.Lock()
	defer n.seqMu.Unlock()
	last := n.started[origin]
	if seq <= last {
		return false // duplicate delivery or an already-covered watermark
	}
	if watermark {
		gap = true
	} else {
		gap = seq > last+1
	}
	n.started[origin] = seq
	return gap
}

// markApplied advances origin's applied counter to seq and journals it,
// after the invalidation (or covering flush) has been applied locally: the
// counter is what this node's applied vector advertises — advancing it
// first would vouch for a page the sweep was about to remove — and
// journaling first would let a crash claim an application that never
// happened.
func (n *Node) markApplied(origin string, seq uint64) {
	if origin == "" || origin == n.self || seq == 0 {
		return
	}
	n.seqMu.Lock()
	n.applied[origin] = max(n.applied[origin], seq)
	n.seqMu.Unlock()
	if n.cfg.SeqJournal != nil {
		n.cfg.SeqJournal.RecordApplied(origin, seq)
	}
}

// quarantine drops every cached page: a sequence gap from origin means
// invalidations were missed, so any entry might be stale — §3.2 permits
// serving nothing, never serving wrong. Returns the number of pages
// dropped.
func (n *Node) quarantine(origin string, seq uint64) int {
	pages := n.cfg.Cache.Len()
	n.cfg.Cache.FlushLocal()
	n.gapFlushes.Add(1)
	n.logf("cluster: %s: invalidation gap from %s (seq %d): quarantine flush (%d pages dropped)",
		n.self, origin, seq, pages)
	return pages
}

// appliedVector snapshots origin -> applied seq, including this node's own
// completed-broadcast watermark, for the freshness check on the transfer
// paths (fetch responses, replica offers).
func (n *Node) appliedVector() map[string]uint64 {
	n.seqMu.Lock()
	v := make(map[string]uint64, len(n.applied)+1)
	for o, s := range n.applied {
		v[o] = s
	}
	n.seqMu.Unlock()
	if s := n.seqDone.Load(); s > 0 {
		v[n.self] = s
	}
	return v
}

// startedVector snapshots the invalidations this node has started to
// apply — origin -> started seq, plus its own completed-broadcast
// watermark — for judging a peer's applied vector (behind).
func (n *Node) startedVector() map[string]uint64 {
	n.seqMu.Lock()
	v := make(map[string]uint64, len(n.started)+1)
	for o, s := range n.started {
		v[o] = s
	}
	n.seqMu.Unlock()
	if s := n.seqDone.Load(); s > 0 {
		v[n.self] = s
	}
	return v
}

// behind reports whether a peer's applied vector remote is missing an
// invalidation in mine, a startedVector (some origin where mine is ahead;
// a missing entry counts as zero). A page from such a peer may predate
// that invalidation, so transfer paths refuse it — the counterpart to
// quarantine: a gapped peer can neither serve nor export stale state into
// healthy nodes.
func behind(remote, mine map[string]uint64) bool {
	for o, s := range mine {
		if remote[o] < s {
			return true
		}
	}
	return false
}

// handleFrame serves one peer request (the server side of the protocol).
func (n *Node) handleFrame(typ byte, raw, body []byte) (byte, meta, []byte, error) {
	switch typ {
	case msgGet:
		var m getMeta
		if err := decodeMeta(typ, raw, &m); err != nil {
			return 0, nil, nil, err
		}
		n.getsServed.Add(1)
		// The vector is taken before the page is read or generated: it may
		// vouch only for invalidations whose sweep finished before that.
		applied := n.appliedVector()
		if v, ok := n.cfg.Cache.Export(m.Key); ok {
			// v.Body is the identity representation — the canonical page on
			// the wire. Gzip variants and ETags are never shipped: the
			// requester re-derives them at insert under its own serve
			// configuration.
			return msgGetResp, &getRespMeta{
				Found:       true,
				Cacheable:   true,
				Status:      http.StatusOK,
				ContentType: v.ContentType,
				TTLNanos:    int64(v.TTL),
				Deps:        v.Deps,
				Applied:     applied,
			}, v.Body, nil
		}
		if m.URI == "" || n.cfg.Generate == nil {
			return msgGetResp, &getRespMeta{Found: false}, nil, nil
		}
		a, ok := n.generate(&m)
		if !ok {
			return msgGetResp, &getRespMeta{Found: false}, nil, nil
		}
		if a.Generated {
			n.getsGenerated.Add(1)
		}
		return msgGetResp, &getRespMeta{
			Found:       true,
			Generated:   a.Generated,
			Cacheable:   a.Cacheable,
			Status:      int64(a.Status),
			ContentType: a.ContentType,
			Header:      a.Header,
			TTLNanos:    int64(a.TTL),
			Deps:        a.Deps,
			Applied:     applied,
		}, a.Body, nil

	case msgPut:
		var m putMeta
		if err := decodeMeta(typ, raw, &m); err != nil {
			return 0, nil, nil, err
		}
		if behind(m.Applied, n.startedVector()) {
			// The offerer has missed an invalidation this node already
			// applied; its page may be stale. Refuse the replica.
			n.stalePutRejects.Add(1)
			n.putsRejected.Add(1)
			return msgPutResp, &putRespMeta{OK: false}, nil, nil
		}
		// The epoch guard refuses a replica that overlaps a write still open
		// here (swept locally, broadcast in flight), and the local byte
		// budget governs replicas exactly like local inserts: an owner at
		// MaxBytes refuses the offer (or its admission filter sides with a
		// hotter victim) instead of letting replication traffic push it
		// over budget. A rejection is reported so the offering node's
		// counters tell the truth.
		_, stored, _ := n.cfg.Cache.InsertSince(n.cfg.Cache.Epoch(), m.Key, body, m.ContentType,
			m.Deps, ttlFromNanos(m.TTLNanos))
		if !stored {
			n.putsRejected.Add(1)
			return msgPutResp, &putRespMeta{OK: false}, nil, nil
		}
		n.putsApplied.Add(1)
		return msgPutResp, &putRespMeta{OK: true}, nil, nil

	case msgInv:
		var m invMeta
		if err := decodeMeta(typ, raw, &m); err != nil {
			return 0, nil, nil, err
		}
		pages := 0
		if n.startApplied(m.Origin, m.Seq, false) {
			// The seq jumped past last+1: broadcasts were missed while this
			// node was unreachable. The targeted sweeps cannot undo the
			// missed ones, so quarantine — and the flush subsumes this
			// frame's own captures.
			pages = n.quarantine(m.Origin, m.Seq)
		} else {
			// Local-only application of the frame's captures as one sweep:
			// re-broadcasting a received invalidation would echo around the
			// cluster forever. A capture unanalysable here makes the sweep
			// flush instead, the always-sound fallback.
			pages, _ = n.cfg.Cache.InvalidateWriteLocal(m.Captures...)
		}
		n.markApplied(m.Origin, m.Seq)
		n.invApplied.Add(uint64(len(m.Captures)))
		n.pagesRemoved.Add(uint64(pages))
		return msgInvResp, &invRespMeta{Pages: pages}, nil, nil

	case msgFlush:
		var m flushMeta
		if err := decodeMeta(typ, raw, &m); err != nil {
			return 0, nil, nil, err
		}
		// A flush drops everything, so it covers any gap by itself — just
		// advance the counter.
		n.startApplied(m.Origin, m.Seq, false)
		n.cfg.Cache.FlushLocal()
		n.markApplied(m.Origin, m.Seq)
		n.flushApplied.Add(1)
		return msgFlushResp, &flushRespMeta{OK: true}, nil, nil

	case msgPing:
		var m pingMeta
		if err := decodeMeta(typ, raw, &m); err != nil {
			return 0, nil, nil, err
		}
		// The ping carries the sender's completed-broadcast watermark: if
		// this node's applied counter is behind it, invalidations were
		// missed (down, partitioned, or restarted cold with prior state) —
		// quarantine now, before any request can hit a stale entry. This is
		// the rejoin path: the first probe after heal cleans the node.
		if n.startApplied(m.Origin, m.Seq, true) {
			n.quarantine(m.Origin, m.Seq)
			n.markApplied(m.Origin, m.Seq)
		}
		var applied uint64
		if m.Origin != "" {
			n.seqMu.Lock()
			applied = n.applied[m.Origin]
			n.seqMu.Unlock()
		}
		return msgPong, &pongMeta{OK: true, Applied: applied}, nil, nil
	}
	return 0, nil, nil, fmt.Errorf("cluster: unknown message type %#x", typ)
}

// probeLoop pings peers on a ticker until Close.
func (n *Node) probeLoop(interval time.Duration) {
	defer n.probeWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-n.stopProbe:
			return
		case <-t.C:
		}
		n.probePeers(time.Now())
	}
}

// probePeers pings every due peer in parallel: healthy and suspect peers
// every tick (keeping the failure detector fed even when no requests flow),
// down peers once their jittered backoff expires — the breaker's half-open
// trial, and the only path that dials a down peer.
func (n *Node) probePeers(now time.Time) {
	n.mu.Lock()
	if len(n.peers) == 0 {
		// Solo node: stay allocation-free (the local hit path's 0-alloc
		// guarantee is measured process-wide).
		n.mu.Unlock()
		return
	}
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	ping := &pingMeta{Origin: n.self, Seq: n.seqDone.Load()}
	var wg sync.WaitGroup
	for _, p := range peers {
		if !p.health.probeDue(now) {
			continue
		}
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			var pong pongMeta
			if err := p.probe(msgPing, ping, &pong); err != nil {
				n.pingFailures.Add(1)
			}
		}(p)
	}
	wg.Wait()
}

// peerTransition is the once-per-transition health callback.
func (n *Node) peerTransition(addr string, from, to PeerState) {
	n.logf("cluster: %s: peer %s %s -> %s", n.self, addr, from, to)
}

// PeerStates returns each peer's current health state — the per-peer gauge.
func (n *Node) PeerStates() map[string]PeerState {
	n.mu.Lock()
	peers := make([]*peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	out := make(map[string]PeerState, len(peers))
	for _, p := range peers {
		out[p.addr] = p.health.snapshot()
	}
	return out
}

// Snapshot returns a point-in-time copy of the node counters, peer gauges
// and peer-operation latency distributions — the canonical stats accessor
// shared by every layer; the telemetry collectors consume it.
func (n *Node) Snapshot() Stats {
	st := Stats{
		RemoteHits:           n.remoteHits.Load(),
		RemoteMisses:         n.remoteMisses.Load(),
		FetchAborts:          n.fetchAborts.Load(),
		FetchErrors:          n.fetchErrors.Load(),
		OffersSent:           n.offersSent.Load(),
		OffersRejected:       n.offersRejected.Load(),
		InvSent:              n.invSent.Load(),
		InvBroadcastFailures: n.invBcastFailures.Load(),
		PingFailures:         n.pingFailures.Load(),
		BreakerSkips:         n.breakerSkips.Load(),
		GapFlushes:           n.gapFlushes.Load(),
		StaleFetchRejects:    n.staleFetchRejects.Load(),
		StalePutRejects:      n.stalePutRejects.Load(),
		GetsServed:           n.getsServed.Load(),
		GetsGenerated:        n.getsGenerated.Load(),
		PutsApplied:          n.putsApplied.Load(),
		PutsRejected:         n.putsRejected.Load(),
		InvApplied:           n.invApplied.Load(),
		FlushApplied:         n.flushApplied.Load(),
		PagesRemoved:         n.pagesRemoved.Load(),
	}
	for _, s := range n.PeerStates() {
		switch s {
		case StateHealthy:
			st.PeersHealthy++
		case StateSuspect:
			st.PeersSuspect++
		case StateDown:
			st.PeersDown++
		}
	}
	st.FetchLatency = n.fetchLat.Snapshot()
	st.OfferLatency = n.offerLat.Snapshot()
	st.BroadcastLatency = n.bcastLat.Snapshot()
	return st
}
