// Package autowebcache is a Go reproduction of AutoWebCache (Bouchenak,
// Cox, Dropsho, Mittal, Zwaenepoel — "Caching Dynamic Web Content:
// Designing and Analysing an Aspect-Oriented Solution", Middleware 2006): a
// middleware that transparently caches fully formed dynamic web pages in
// front of a web application while keeping them strongly consistent with
// the backing database.
//
// The package is a thin façade over the implementation packages:
//
//   - memdb — the embedded SQL database substrate (the paper's MySQL);
//   - sqlparser — the SQL dialect, templates and value vectors;
//   - analysis — the query-analysis engine with the paper's three
//     invalidation strategies (ColumnOnly, WhereMatch, AC-extraQuery);
//   - cache — the page cache: page table + dependency table, TTL and
//     semantic windows, a byte budget with segmented LRU eviction and
//     optional TinyLFU admission;
//   - weave — the AOP substitute: handler advice (around/after) and the
//     query-capturing connection;
//   - rubis, tpcw — the paper's two benchmark applications;
//   - workload, bench — the client emulator and the per-figure experiment
//     harness.
//
// # Usage
//
// Build a database, create a Runtime with the caching configuration, hand
// the Runtime's Conn to your application handlers, and weave them:
//
//	db := autowebcache.NewDB()
//	// ... create tables, load data ...
//	rt, err := autowebcache.New(db, autowebcache.Config{Strategy: autowebcache.ExtraQuery})
//	// build handlers that query rt.Conn(), then:
//	h, err := rt.Weave(handlers, autowebcache.Rules{})
//	http.ListenAndServe(addr, h)
//
// Handlers remain ordinary http.HandlerFuncs with no caching code — the
// paper's transparency claim, realised with middleware interposition
// instead of AspectJ weaving.
package autowebcache

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/cache/l2"
	"autowebcache/internal/cluster"
	"autowebcache/internal/datasource"
	"autowebcache/internal/memdb"
	"autowebcache/internal/servlet"
	"autowebcache/internal/weave"

	// The shipped datasource drivers, so Open resolves "memdb" and
	// "sqlite:<path>" DSNs out of the box (memdb registers through the memdb
	// import above).
	_ "autowebcache/internal/datasource/sqlite"
)

// Re-exported types: the public names a downstream user needs.
type (
	// DB is the embedded SQL database.
	DB = memdb.DB
	// Conn is the query interface handlers use (the JDBC analogue).
	Conn = memdb.Conn
	// Rows is a query result set.
	Rows = memdb.Rows
	// TableSpec declares a table.
	TableSpec = memdb.TableSpec
	// Column declares a table column.
	Column = memdb.Column
	// HandlerInfo describes one web interaction.
	HandlerInfo = servlet.HandlerInfo
	// Segment is one piece of a fragmented page: a cacheable fragment with
	// its own vary dimensions, TTL and dependency set, or an uncacheable
	// hole. Declare a decomposition in HandlerInfo.Fragments and enable it
	// with Rules.Fragments.
	Segment = servlet.Segment
	// Rules are the weaving rules (uncacheable pages, semantic windows,
	// fragment-granular caching).
	Rules = weave.Rules
	// Woven is a cache-enabled application handler.
	Woven = weave.Woven
	// Strategy selects the invalidation strategy.
	Strategy = analysis.Strategy
	// PageCache is the page cache with its statistics.
	PageCache = cache.Cache
	// Engine is the query-analysis engine.
	Engine = analysis.Engine
	// ClusterNode is one member of the cache cluster's peer tier.
	ClusterNode = cluster.Node
)

// Column types for TableSpec declarations.
const (
	TypeInt    = memdb.TypeInt
	TypeFloat  = memdb.TypeFloat
	TypeString = memdb.TypeString
)

// Invalidation strategies (§3.2 of the paper), in increasing precision.
const (
	ColumnOnly = analysis.StrategyColumnOnly
	WhereMatch = analysis.StrategyWhereMatch
	// ExtraQuery is the paper's default ("AC-extraQuery").
	ExtraQuery = analysis.StrategyExtraQuery
)

// NewDB creates an empty embedded database.
func NewDB() *DB { return memdb.New() }

// ComposeSegments renders a fragmented handler's segments in order as one
// whole page — the monolithic form used when fragment caching is off.
func ComposeSegments(segs []Segment) http.HandlerFunc {
	return servlet.ComposeSegments(segs)
}

// ParseByteSize parses a human-readable byte size for cache budgets: a
// plain integer is bytes; k/m/g suffixes (case-insensitive, optional
// trailing b or ib) scale by 1024. "" and "0" mean unbounded.
func ParseByteSize(s string) (int64, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	if t == "" {
		return 0, nil
	}
	mult := int64(1)
	for _, suf := range []struct {
		text string
		mult int64
	}{
		{"kib", 1 << 10}, {"kb", 1 << 10}, {"k", 1 << 10},
		{"mib", 1 << 20}, {"mb", 1 << 20}, {"m", 1 << 20},
		{"gib", 1 << 30}, {"gb", 1 << 30}, {"g", 1 << 30},
	} {
		if strings.HasSuffix(t, suf.text) {
			t = strings.TrimSuffix(t, suf.text)
			mult = suf.mult
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("autowebcache: bad byte size %q (want e.g. 1048576, 64m, 2gib)", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("autowebcache: negative byte size %q", s)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("autowebcache: byte size %q overflows int64", s)
	}
	return n * mult, nil
}

// PageCacheConfig bounds the page-cache tier.
type PageCacheConfig struct {
	// MaxBytes bounds the page cache's accounted memory — body, key,
	// dependency and variant overhead per page (0 = unbounded). Setting it
	// enables segmented (probation/protected) eviction: pages with proven
	// reuse are evicted only after one-hit pages are exhausted.
	MaxBytes int64
	// L2Path enables the disk (SSD) tier: a directory where pages evicted
	// from the in-memory tier are demoted instead of discarded, and from
	// which a restart recovers its working set warm. Invalidations sweep
	// both tiers before the write returns, so the §3.2 guarantee is
	// unchanged. Empty disables the tier. The Runtime owns the store:
	// Runtime.Close spills the in-memory tier into it and closes it.
	L2Path string
	// L2MaxBytes bounds the disk tier's file footprint (0 = unbounded).
	// When the budget is exceeded the oldest segment file is dropped whole
	// — disk-tier loss is only ever extra misses, never staleness.
	L2MaxBytes int64
}

// ServeConfig controls the HTTP representation of cached pages: which
// content-encoding variants are built at insert time and whether pages
// carry validators for conditional requests. These knobs shape the entry
// at insert (compress once, hash once) so the serve path stays
// allocation-free; they do not change what is cached or when it is
// invalidated.
type ServeConfig struct {
	// Encodings lists the content-encodings the cache may serve, chosen
	// per request from Accept-Encoding. Recognised codings are "identity"
	// and "gzip"; anything else is a configuration error. Listing "gzip"
	// makes each insert compress the page once and store the variant
	// alongside the identity bytes (kept only when strictly smaller).
	// Empty means identity-only — the historical behaviour.
	Encodings []string
	// ETags precomputes a strong, content-derived validator per entry at
	// insert; responses then carry it and If-None-Match revalidations are
	// answered 304 with zero body bytes straight from the cache.
	ETags bool
}

// Config configures a Runtime. Capacity and serving knobs live in the
// PageCache and Serve groups.
type Config struct {
	// Strategy is the invalidation strategy; defaults to ExtraQuery.
	Strategy Strategy
	// Admission gates inserts under byte-budget pressure with a TinyLFU
	// filter: at the budget, a page is held in memory only when its request
	// frequency beats the eviction victim's; with PageCache.L2Path set a
	// refused page goes to the disk tier instead. It requires
	// PageCache.MaxBytes: the page cache rejects it without one.
	Admission bool
	// Disabled builds the baseline configuration: handlers still work and
	// statistics are collected, but nothing is cached (the paper's
	// "No cache" comparison).
	Disabled bool

	// PageCache bounds and tunes the page-cache tier.
	PageCache PageCacheConfig
	// Serve configures content-encoding variants and ETag validators.
	Serve ServeConfig
}

// validate checks the Serve group.
func (cfg Config) validate() error {
	for _, enc := range cfg.Serve.Encodings {
		switch strings.ToLower(strings.TrimSpace(enc)) {
		case "identity", "gzip":
		default:
			return fmt.Errorf("autowebcache: unknown content-encoding %q (identity, gzip)", enc)
		}
	}
	return nil
}

// gzipEnabled reports whether the Serve group asks for gzip variants.
func (s ServeConfig) gzipEnabled() bool {
	for _, enc := range s.Encodings {
		if strings.EqualFold(strings.TrimSpace(enc), "gzip") {
			return true
		}
	}
	return false
}

// Runtime wires a database backend to an analysis engine, a page cache and
// a query-capturing connection.
type Runtime struct {
	// db is set only when the backend is the embedded memdb engine; other
	// drivers leave it nil and are reachable through raw.
	db     *memdb.DB
	raw    Conn
	engine *analysis.Engine
	cache  *cache.Cache
	l2     *l2.Store
	conn   Conn
}

// New creates a Runtime over the embedded database.
func New(db *DB, cfg Config) (*Runtime, error) {
	if db == nil {
		return nil, fmt.Errorf("autowebcache: nil database")
	}
	return NewFromConn(db, cfg)
}

// Open connects to the database named by a driver DSN — "memdb" for a fresh
// in-memory engine, "memdb:<name>" for a process-shared instance,
// "sqlite:<path>" for the shared-file backend — and builds a Runtime over
// it. Seed the returned Runtime's RawConn before weaving handlers.
func Open(dsn string, cfg Config) (*Runtime, error) {
	conn, err := datasource.Open(dsn)
	if err != nil {
		return nil, err
	}
	return NewFromConn(conn, cfg)
}

// NewFromConn builds a Runtime over any datasource connection. Backends
// implementing datasource.SchemaReporter give the analysis engine its
// precise paths (column attribution in multi-table reads, auto-increment
// exoneration); others get the conservative analysis, which invalidates
// more but never serves stale pages.
func NewFromConn(conn Conn, cfg Config) (*Runtime, error) {
	if conn == nil {
		return nil, fmt.Errorf("autowebcache: nil connection")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Strategy == 0 {
		cfg.Strategy = ExtraQuery
	}
	var schema analysis.Schema
	if sr, ok := conn.(analysis.Schema); ok {
		schema = sr
	}
	engine, err := analysis.NewEngine(cfg.Strategy, schema)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{raw: conn, engine: engine}
	if db, ok := conn.(*memdb.DB); ok {
		rt.db = db
	}
	if cfg.Disabled {
		rt.conn = conn
		return rt, nil
	}
	if cfg.PageCache.L2Path != "" {
		rt.l2, err = l2.Open(l2.Options{
			Dir:      cfg.PageCache.L2Path,
			MaxBytes: cfg.PageCache.L2MaxBytes,
		})
		if err != nil {
			return nil, err
		}
	}
	rt.cache, err = cache.New(cache.Options{
		Engine:    engine,
		MaxBytes:  cfg.PageCache.MaxBytes,
		Admission: cfg.Admission,
		Gzip:      cfg.Serve.gzipEnabled(),
		ETags:     cfg.Serve.ETags,
		L2:        rt.l2,
	})
	if err != nil {
		if rt.l2 != nil {
			rt.l2.Close()
		}
		return nil, err
	}
	rt.conn = weave.NewConn(conn, engine)
	return rt, nil
}

// Conn returns the connection application handlers must query through. In
// the cached configuration it records each query's consistency information
// (the paper's JDBC join point); in the Disabled configuration it is the
// raw database.
func (rt *Runtime) Conn() Conn { return rt.conn }

// DB returns the underlying embedded database, or nil when the Runtime was
// opened over a different backend (use RawConn then).
func (rt *Runtime) DB() *DB { return rt.db }

// RawConn returns the unrecorded backend connection — the one to seed data
// through, so bootstrap queries don't pollute the analysis.
func (rt *Runtime) RawConn() Conn { return rt.raw }

// Close releases the Runtime's resources. With a disk cache tier
// configured it first spills the in-memory tier into the store and closes
// it — snapshot written, journal durable — so the next boot serves the
// working set warm; then it closes backend drivers that hold resources
// (file handles, connection pools). The memdb backend holds none.
func (rt *Runtime) Close() error {
	var firstErr error
	if rt.cache != nil {
		firstErr = rt.cache.Close()
	}
	if c, ok := rt.raw.(datasource.Closer); ok {
		if err := c.Close(); firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Cache returns the page cache (nil when Disabled).
func (rt *Runtime) Cache() *PageCache { return rt.cache }

// Engine returns the query-analysis engine.
func (rt *Runtime) Engine() *Engine { return rt.engine }

// Weave builds the cache-enabled application: read handlers get cache
// check/insert advice, write handlers get invalidation advice, and the
// rules mark uncacheable pages and semantic windows.
func (rt *Runtime) Weave(handlers []HandlerInfo, rules Rules) (*Woven, error) {
	return weave.New(handlers, rt.cache, rules)
}

// ClusterConfig configures the optional peer tier turning N autowebcache
// processes into one logical cache (consistent-hash key ownership,
// cross-node fetch and replication, cluster-wide write invalidation).
type ClusterConfig struct {
	// ListenPeer is the peer-protocol listen address (e.g. "10.0.0.1:9080");
	// as configured, it is also the node's ring identity, so it must match
	// the string the other nodes carry in their Peers lists. Empty disables
	// clustering (Cluster then returns a nil node) — but combined with a
	// non-empty Peers it is a configuration error.
	ListenPeer string
	// Advertise overrides the ring identity when ListenPeer is not the
	// address peers dial (all-interfaces listens, NAT).
	Advertise string
	// Peers are the OTHER nodes' peer addresses. Empty is pure local mode.
	Peers []string
	// ProbeInterval is the peer health-probe cadence (0 = 250ms, negative
	// disables); down peers redial on a jittered exponential backoff.
	ProbeInterval time.Duration
	// FailureThreshold is the consecutive-failure count that marks a peer
	// down and opens its circuit breaker (0 = 3).
	FailureThreshold int
}

// Cluster boots the peer tier over the Runtime's caches and attaches it to
// the woven handler: a miss on a key another node owns is resolved at that
// owner — which answers from its cache or runs the handler for the request,
// so it holds every page its peers ask for — and every cache invalidation
// fans out to the peers. The
// returned node must be Closed on shutdown. Requires the cached
// configuration (Config.Disabled unset).
//
// The owner runs the handler on the request URI and the cookies the key
// covers (Rules.KeyCookies, or a fragment's vary cookies) — no other
// header or cookie reaches it. A cacheable route's response, errors and
// redirects included, must therefore depend on nothing else of the
// request, as its cache key already asserts; the headers the handler sets
// travel back with a response the owner could not cache.
//
// An empty ListenPeer disables clustering and returns a nil node, so
// callers can pass their flag values straight through; Peers without
// ListenPeer is rejected as a misconfiguration rather than silently
// ignored.
func (rt *Runtime) Cluster(handler *Woven, cfg ClusterConfig) (*ClusterNode, error) {
	if cfg.ListenPeer == "" {
		if len(cfg.Peers) > 0 {
			return nil, fmt.Errorf("autowebcache: ClusterConfig.Peers set without ListenPeer")
		}
		return nil, nil
	}
	if rt.cache == nil {
		return nil, fmt.Errorf("autowebcache: clustering requires the cache (Config.Disabled must be unset)")
	}
	clcfg := cluster.Config{
		Listen:           cfg.ListenPeer,
		Advertise:        cfg.Advertise,
		Peers:            cfg.Peers,
		Cache:            rt.cache,
		ProbeInterval:    cfg.ProbeInterval,
		FailureThreshold: cfg.FailureThreshold,
		Generate:         handler.ResolvePeer,
	}
	if rt.l2 != nil {
		// The disk tier doubles as the invalidation-sequence journal, so a
		// restarted node that provably missed nothing rejoins without the
		// quarantine flush wiping its warm store. The conditional assignment
		// matters: a nil *l2.Store in the interface field would read as
		// non-nil to the node.
		clcfg.SeqJournal = rt.l2
	}
	node, err := cluster.New(clcfg)
	if err != nil {
		return nil, err
	}
	if err := node.Start(); err != nil {
		return nil, err
	}
	handler.SetRemote(node)
	return node, nil
}
