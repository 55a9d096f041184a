package autowebcache

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"autowebcache/internal/cache"
	"autowebcache/internal/cluster"
	"autowebcache/internal/telemetry"
	"autowebcache/internal/weave"
)

// Re-exported statistics types: the per-layer snapshots the Admin surface
// serves, usable from the facade without importing internal packages. Every
// layer follows one convention — Snapshot() returns a point-in-time copy —
// and these are the types it returns.
type (
	// AppStats is the weave layer's snapshot: per-interaction statistics,
	// their aggregate, and the epoch guard's abort count.
	AppStats = weave.AppStats
	// InteractionStats aggregates the outcomes of one interaction type,
	// including the send-failure count and per-outcome latency histograms.
	InteractionStats = weave.InteractionStats
	// CacheStats are the page cache's counters, including the per-segment
	// (probation/protected) occupancy and eviction splits.
	CacheStats = cache.Stats
	// ClusterStats are the peer tier's counters and gauges, including
	// PingFailures, BreakerSkips, GapFlushes and the peer-operation latency
	// histograms.
	ClusterStats = cluster.Stats
	// HistSnapshot is one latency histogram's point-in-time state.
	HistSnapshot = telemetry.HistSnapshot
	// MetricFamily describes one exported series family (name, type, help,
	// labels) — what the generated docs/METRICS.md is built from.
	MetricFamily = telemetry.FamilyMeta
)

// Snapshot is the unified cross-layer statistics view: everything the
// process measures, in one struct, from one call (Admin.Snapshot). Nil
// pointers mark layers that are not wired (no cache, no cluster).
// This is also what GET /statsz on the admin mux serves as JSON.
type Snapshot struct {
	App     *AppStats     `json:"app,omitempty"`
	Cache   *CacheStats   `json:"cache,omitempty"`
	Cluster *ClusterStats `json:"cluster,omitempty"`
	// Peers maps each peer address to its health state ("healthy",
	// "suspect", "down").
	Peers map[string]string `json:"peers,omitempty"`
}

// Admin is the operator surface of one autowebcache process: a telemetry
// registry plus an HTTP mux serving
//
//	GET /metrics      — Prometheus text format (all watched layers)
//	GET /statsz       — the unified Snapshot as JSON
//	GET /healthz      — liveness (200 "ok")
//	/debug/pprof/...  — the standard net/http/pprof profiles
//
// Wire it with Watch (or the per-layer WatchApp/WatchCache/WatchCluster)
// and serve Handler() on an admin listener — both servers expose it behind
// -metrics-listen. Watching adds snapshot collectors only: the watched
// layers keep their existing atomic counters as the single source of truth,
// and the registry reads a Snapshot() at scrape time, so instrumentation
// adds nothing to the request hot paths.
type Admin struct {
	reg *telemetry.Registry
	mux *http.ServeMux

	woven  *Woven
	pcache *PageCache
	node   *ClusterNode
}

// NewAdmin creates an Admin with runtime (Go process) metrics registered
// and the endpoint mux built. Watch layers before serving.
func NewAdmin() *Admin {
	a := &Admin{reg: telemetry.NewRegistry(), mux: http.NewServeMux()}
	telemetry.RegisterRuntimeMetrics(a.reg)
	a.mux.Handle("/metrics", a.reg.Handler())
	a.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	a.mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(a.Snapshot())
	})
	a.mux.HandleFunc("/debug/pprof/", pprof.Index)
	a.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	a.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	a.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	a.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return a
}

// Handler returns the admin HTTP handler (metrics + statsz + healthz +
// pprof).
func (a *Admin) Handler() http.Handler { return a.mux }

// Families returns every series family the registry exposes, sorted by
// name — the machine-readable form of docs/METRICS.md.
func (a *Admin) Families() []MetricFamily { return a.reg.Families() }

// Watch wires every layer the Runtime and its companions carry: the woven
// app, the page cache and the cluster node. Any nil argument (and any layer
// the Runtime does not have) is skipped, so servers can pass their values
// straight through.
func (a *Admin) Watch(rt *Runtime, w *Woven, node *ClusterNode) *Admin {
	if w != nil {
		a.WatchApp(w)
	}
	if rt != nil && rt.Cache() != nil {
		a.WatchCache(rt.Cache())
	}
	if node != nil {
		a.WatchCluster(node)
	}
	return a
}

// Snapshot returns the unified statistics of every watched layer.
func (a *Admin) Snapshot() Snapshot {
	var s Snapshot
	if a.woven != nil {
		app := a.woven.Snapshot()
		s.App = &app
	}
	if a.pcache != nil {
		st := a.pcache.Snapshot()
		s.Cache = &st
	}
	if a.node != nil {
		st := a.node.Snapshot()
		s.Cluster = &st
		peers := a.node.PeerStates()
		s.Peers = make(map[string]string, len(peers))
		for addr, st := range peers {
			s.Peers[addr] = st.String()
		}
	}
	return s
}
