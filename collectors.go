package autowebcache

import (
	"autowebcache/internal/telemetry"
	"autowebcache/internal/weave"
)

// This file holds the snapshot collectors behind Admin.Watch*: each Watch
// registers one collector that, at scrape time, takes the layer's
// Snapshot() and renders it as metric families. The layers stay the single
// source of truth — /metrics can never disagree with /statsz, because both
// read the same snapshot — and the request hot paths carry no extra work
// beyond the counters they already maintain.
//
// Naming: every series is prefixed awc_ ("autowebcache"); counters end in
// _total, histograms in _duration_seconds, gauges in neither. Help strings
// name the internal stat each series mirrors — docs/METRICS.md is
// generated from them (cmd/metricsdoc), so keep them accurate.

// appCounter maps one per-handler counter family to the InteractionStats
// field it mirrors.
type appCounter struct {
	name string
	help string
	get  func(*InteractionStats) uint64
}

var appCounters = []appCounter{
	{"awc_requests_total", "Requests served, by handler. Mirrors weave.InteractionStats.Requests.",
		func(s *InteractionStats) uint64 { return s.Requests }},
	{"awc_hits_total", "Strong-consistency cache hits, including coalesced (by handler). Mirrors weave.InteractionStats.Hits.",
		func(s *InteractionStats) uint64 { return s.Hits }},
	{"awc_not_modified_total", "Conditional requests answered 304 via If-None-Match, zero body bytes (subset of hits). Mirrors weave.InteractionStats.NotModified.",
		func(s *InteractionStats) uint64 { return s.NotModified }},
	{"awc_semantic_hits_total", "Cache hits under a semantic TTL window. Mirrors weave.InteractionStats.SemanticHits.",
		func(s *InteractionStats) uint64 { return s.SemanticHits }},
	{"awc_coalesced_total", "Misses served by a concurrent flight's result (subset of hits). Mirrors weave.InteractionStats.Coalesced.",
		func(s *InteractionStats) uint64 { return s.Coalesced }},
	{"awc_remote_hits_total", "Local misses served by a cluster peer's cache. Mirrors weave.InteractionStats.RemoteHits.",
		func(s *InteractionStats) uint64 { return s.RemoteHits }},
	{"awc_fragment_hits_total", "Pages whose every cacheable fragment came from the cache. Mirrors weave.InteractionStats.FragmentHits.",
		func(s *InteractionStats) uint64 { return s.FragmentHits }},
	{"awc_assembled_total", "Pages assembled from a mix of fragment hits and generations. Mirrors weave.InteractionStats.Assembled.",
		func(s *InteractionStats) uint64 { return s.Assembled }},
	{"awc_misses_total", "Cache misses that executed the handler. Mirrors weave.InteractionStats.Misses.",
		func(s *InteractionStats) uint64 { return s.Misses }},
	{"awc_writes_total", "Write interactions (each invalidates dependent pages). Mirrors weave.InteractionStats.Writes.",
		func(s *InteractionStats) uint64 { return s.Writes }},
	{"awc_uncacheable_total", "Requests that bypassed the cache by rule (or ran unwoven). Mirrors weave.InteractionStats.Uncacheable.",
		func(s *InteractionStats) uint64 { return s.Uncacheable }},
	{"awc_errors_total", "Handler responses with a non-200 status. Mirrors weave.InteractionStats.Errors.",
		func(s *InteractionStats) uint64 { return s.Errors }},
	{"awc_send_failures_total", "Responses whose write to the client failed mid-send; their latencies are excluded from the histogram. Mirrors weave.InteractionStats.SendFailures.",
		func(s *InteractionStats) uint64 { return s.SendFailures }},
	{"awc_pages_invalidated_total", "Pages removed by this handler's write invalidations. Mirrors weave.InteractionStats.PagesInvalidated.",
		func(s *InteractionStats) uint64 { return s.PagesInvalidated }},
	{"awc_fragments_served_total", "Cacheable fragments served from the cache across assembled responses. Mirrors weave.InteractionStats.FragmentsServed.",
		func(s *InteractionStats) uint64 { return s.FragmentsServed }},
	{"awc_fragments_considered_total", "Cacheable fragments considered across assembled responses. Mirrors weave.InteractionStats.FragmentsTotal.",
		func(s *InteractionStats) uint64 { return s.FragmentsTotal }},
	{"awc_response_bytes_total", "Response-body bytes of cache-governed responses. Mirrors weave.InteractionStats.BytesOut.",
		func(s *InteractionStats) uint64 { return s.BytesOut }},
	{"awc_cached_response_bytes_total", "Subset of response bytes served from the cache. Mirrors weave.InteractionStats.BytesCached.",
		func(s *InteractionStats) uint64 { return s.BytesCached }},
}

// WatchApp exports the weave layer: one counter family per mirrored
// InteractionStats field, labelled by handler, plus the per-outcome request
// latency histogram and the flight-abort counter. Every handler the Woven
// carries gets its series emitted on every scrape — zeros included — so a
// scrape's series set is deterministic from wiring, not from traffic.
func (a *Admin) WatchApp(w *Woven) *Admin {
	a.woven = w
	handlers := w.Handlers()
	a.reg.Collect(func(g *telemetry.Gatherer) {
		for _, c := range appCounters {
			g.Declare(c.name, telemetry.TypeCounter, c.help, "handler")
		}
		g.Declare("awc_request_duration_seconds", telemetry.TypeHistogram,
			"Request latency by handler and outcome. Mirrors weave.InteractionStats.Latencies.",
			"handler", "outcome")
		g.Declare("awc_flight_aborts_total", telemetry.TypeCounter,
			"Freshly generated pages discarded because an invalidation raced the generation (epoch guard). Mirrors weave.AppStats.FlightAborts.")

		app := w.Snapshot()
		byName := make(map[string]*InteractionStats, len(app.Interactions))
		for i := range app.Interactions {
			byName[app.Interactions[i].Name] = &app.Interactions[i]
		}
		var zero InteractionStats
		for _, h := range handlers {
			is := byName[h.Name]
			if is == nil {
				is = &zero
			}
			for _, c := range appCounters {
				g.Value(c.name, float64(c.get(is)), h.Name)
			}
			for _, ol := range is.Latencies {
				g.Histo("awc_request_duration_seconds", ol.Latency, h.Name, string(ol.Outcome))
			}
		}
		// Interactions recorded outside the handler table (direct Stats
		// callers) still surface, after the declared handlers.
		for name, is := range byName {
			if !knownHandler(handlers, name) {
				for _, c := range appCounters {
					g.Value(c.name, float64(c.get(is)), name)
				}
				for _, ol := range is.Latencies {
					g.Histo("awc_request_duration_seconds", ol.Latency, name, string(ol.Outcome))
				}
			}
		}
		g.Value("awc_flight_aborts_total", float64(app.FlightAborts))
	})
	return a
}

func knownHandler(handlers []HandlerInfo, name string) bool {
	for _, h := range handlers {
		if h.Name == name {
			return true
		}
	}
	return false
}

// cacheCounter maps one cache counter family to the cache.Stats field it
// mirrors. The families carry a cache label ("page") so dashboards keyed
// on it keep working.
type cacheCounter struct {
	name string
	help string
	get  func(*CacheStats) uint64
}

var cacheCounters = []cacheCounter{
	{"awc_cache_hits_total", "Cache lookups served. Mirrors cache.Stats.Hits.",
		func(s *CacheStats) uint64 { return s.Hits }},
	{"awc_cache_misses_total", "Cache lookups missed. Mirrors cache.Stats.Misses.",
		func(s *CacheStats) uint64 { return s.Misses }},
	{"awc_cache_inserts_total", "Pages inserted. Mirrors cache.Stats.Inserts (page cache only).",
		func(s *CacheStats) uint64 { return s.Inserts }},
	{"awc_cache_invalidations_total", "Entries removed by write invalidation. Mirrors cache.Stats.Invalidations.",
		func(s *CacheStats) uint64 { return s.Invalidations }},
	{"awc_cache_expirations_total", "Entries removed because their TTL passed. Mirrors cache.Stats.Expirations (page cache only).",
		func(s *CacheStats) uint64 { return s.Expirations }},
	{"awc_cache_writes_seen_total", "Write captures InvalidateWrite analysed, one per write statement (a request's captures share one call). Mirrors cache.Stats.WritesSeen (page cache only).",
		func(s *CacheStats) uint64 { return s.WritesSeen }},
	{"awc_cache_admission_rejects_total", "Pages the TinyLFU admission filter kept out of memory: with a disk tier attached a refused insert is spilled there (awc_cache_l2_spills_total) and a refused promotion stays there; without one the page is not cached. Mirrors cache.Stats.AdmissionRejects.",
		func(s *CacheStats) uint64 { return s.AdmissionRejects }},
	{"awc_cache_oversize_rejects_total", "Inserts kept out of memory because one entry exceeds MaxBytes (spilled to the disk tier when one is attached). Mirrors cache.Stats.OversizeRejects.",
		func(s *CacheStats) uint64 { return s.OversizeRejects }},
	{"awc_cache_gzip_compressions_total", "Gzip compressor runs — exactly one per insert of a compressible page, never on the serve path. Mirrors cache.Stats.GzipCompressions (page cache only).",
		func(s *CacheStats) uint64 { return s.GzipCompressions }},
}

// declareCacheFamilies declares the page cache's families.
func declareCacheFamilies(g *telemetry.Gatherer) {
	for _, c := range cacheCounters {
		g.Declare(c.name, telemetry.TypeCounter, c.help, "cache")
	}
	g.Declare("awc_cache_evictions_total", telemetry.TypeCounter,
		"Entries removed by capacity pressure, by segment. Mirrors cache.Stats.EvictionsProbation/EvictionsProtected.",
		"cache", "segment")
	g.Declare("awc_cache_entries", telemetry.TypeGauge,
		"Entries resident, by segment. Mirrors cache.Stats.ProbationEntries/ProtectedEntries.",
		"cache", "segment")
	g.Declare("awc_cache_bytes", telemetry.TypeGauge,
		"Accounted bytes of linked entries, by segment. Mirrors cache.Stats.ProbationBytes/ProtectedBytes.",
		"cache", "segment")
	g.Declare("awc_cache_accounted_bytes", telemetry.TypeGauge,
		"Total accounted memory charged against MaxBytes, including in-flight insert reservations. Mirrors cache.Stats.Bytes.",
		"cache")
	g.Declare("awc_cache_dep_templates", telemetry.TypeGauge,
		"Dependency-table template count. Mirrors cache.Stats.DepTemplates (page cache only).",
		"cache")
	g.Declare("awc_cache_dep_instances", telemetry.TypeGauge,
		"Dependency-table (template, vector) instance count. Mirrors cache.Stats.DepInstances (page cache only).",
		"cache")
	g.Declare("awc_cache_variant_bytes", telemetry.TypeGauge,
		"Resident gzip-variant payload bytes, a subset of accounted bytes. Mirrors cache.Stats.VariantBytes (page cache only).",
		"cache")
}

// l2Counter maps one disk-tier counter family to the cache.Stats field
// (tier-movement counters) or embedded l2.Stats field it mirrors. The
// families carry no cache label; they are declared and emitted on every
// scrape, zeros without an attached store, keeping the series set
// deterministic from wiring.
type l2Counter struct {
	name string
	help string
	get  func(*CacheStats) uint64
}

var l2Counters = []l2Counter{
	{"awc_cache_l2_demotions_total", "Evictions that landed in the disk tier instead of discarding. Mirrors cache.Stats.Demotions.",
		func(s *CacheStats) uint64 { return s.Demotions }},
	{"awc_cache_l2_spills_total", "Inserts the memory tier refused (admission or oversize) that landed in the disk tier as volatile records, never restored by a boot. Mirrors cache.Stats.Spills.",
		func(s *CacheStats) uint64 { return s.Spills }},
	{"awc_cache_l2_promotions_total", "Disk-tier hits admitted back into the memory tier. Mirrors cache.Stats.Promotions.",
		func(s *CacheStats) uint64 { return s.Promotions }},
	{"awc_cache_l2_promote_aborts_total", "Promotions abandoned because an invalidation or flush raced them. Mirrors cache.Stats.PromoteAborts.",
		func(s *CacheStats) uint64 { return s.PromoteAborts }},
	{"awc_cache_l2_hits_total", "Disk-tier reads that found a live record. Mirrors cache.Stats.L2.Hits.",
		func(s *CacheStats) uint64 { return s.L2.Hits }},
	{"awc_cache_l2_misses_total", "Disk-tier reads that found nothing (or a corrupt record). Mirrors cache.Stats.L2.Misses.",
		func(s *CacheStats) uint64 { return s.L2.Misses }},
	{"awc_cache_l2_expirations_total", "Disk records discarded on expiry, at read or boot. Mirrors cache.Stats.L2.Expirations.",
		func(s *CacheStats) uint64 { return s.L2.Expirations }},
	{"awc_cache_l2_puts_total", "Records appended to the disk tier: demotions and spills. Mirrors cache.Stats.L2.Puts.",
		func(s *CacheStats) uint64 { return s.L2.Puts }},
	{"awc_cache_l2_removes_total", "Disk-tier keys removed by invalidation, each tombstoned unless its record is volatile. Mirrors cache.Stats.L2.Removes.",
		func(s *CacheStats) uint64 { return s.L2.Removes }},
	{"awc_cache_l2_flushes_total", "Full disk-tier flushes. Mirrors cache.Stats.L2.Flushes.",
		func(s *CacheStats) uint64 { return s.L2.Flushes }},
	{"awc_cache_l2_segments_dropped_total", "Sealed segment files dropped for the disk byte budget. Mirrors cache.Stats.L2.SegmentsDropped.",
		func(s *CacheStats) uint64 { return s.L2.SegmentsDropped }},
	{"awc_cache_l2_dropped_records_total", "Live keys lost to segment drops. Mirrors cache.Stats.L2.DroppedRecords.",
		func(s *CacheStats) uint64 { return s.L2.DroppedRecords }},
	{"awc_cache_l2_journal_syncs_total", "Fsyncs of the disk tier's invalidation journal. Mirrors cache.Stats.L2.JournalSyncs.",
		func(s *CacheStats) uint64 { return s.L2.JournalSyncs }},
	{"awc_cache_l2_torn_tails_total", "Torn file tails truncated during crash recovery. Mirrors cache.Stats.L2.TornTails.",
		func(s *CacheStats) uint64 { return s.L2.TornTails }},
	{"awc_cache_l2_restored_entries_total", "Live keys restored by the last boot (warm-restart size). Mirrors cache.Stats.L2.RestoredEntries.",
		func(s *CacheStats) uint64 { return s.L2.RestoredEntries }},
	{"awc_cache_l2_snapshots_total", "Disk-tier index snapshots written. Mirrors cache.Stats.L2.Snapshots.",
		func(s *CacheStats) uint64 { return s.L2.Snapshots }},
	{"awc_cache_l2_cold_starts_total", "Boots that had to discard the disk tier (corrupt or incomplete state). Mirrors cache.Stats.L2.ColdStarts.",
		func(s *CacheStats) uint64 { return s.L2.ColdStarts }},
}

// WatchCache exports the page cache under cache="page", plus the disk-tier
// (L2) families.
func (a *Admin) WatchCache(c *PageCache) *Admin {
	a.pcache = c
	a.reg.Collect(func(g *telemetry.Gatherer) {
		declareCacheFamilies(g)
		for _, lc := range l2Counters {
			g.Declare(lc.name, telemetry.TypeCounter, lc.help)
		}
		g.Declare("awc_cache_l2_entries", telemetry.TypeGauge,
			"Live keys in the disk-tier index. Mirrors cache.Stats.L2.Entries.")
		g.Declare("awc_cache_l2_bytes", telemetry.TypeGauge,
			"Framed record bytes of live disk-tier entries. Mirrors cache.Stats.L2.Bytes.")
		g.Declare("awc_cache_l2_file_bytes", telemetry.TypeGauge,
			"Total disk-tier segment file bytes, including dead records awaiting segment drop. Mirrors cache.Stats.L2.FileBytes.")
		st := c.Snapshot()
		for _, lc := range l2Counters {
			g.Value(lc.name, float64(lc.get(&st)))
		}
		g.Value("awc_cache_l2_entries", float64(st.L2.Entries))
		g.Value("awc_cache_l2_bytes", float64(st.L2.Bytes))
		g.Value("awc_cache_l2_file_bytes", float64(st.L2.FileBytes))
		for _, cc := range cacheCounters {
			g.Value(cc.name, float64(cc.get(&st)), "page")
		}
		g.Value("awc_cache_evictions_total", float64(st.EvictionsProbation), "page", "probation")
		g.Value("awc_cache_evictions_total", float64(st.EvictionsProtected), "page", "protected")
		g.Value("awc_cache_entries", float64(st.ProbationEntries), "page", "probation")
		g.Value("awc_cache_entries", float64(st.ProtectedEntries), "page", "protected")
		g.Value("awc_cache_bytes", float64(st.ProbationBytes), "page", "probation")
		g.Value("awc_cache_bytes", float64(st.ProtectedBytes), "page", "protected")
		g.Value("awc_cache_accounted_bytes", float64(st.Bytes), "page")
		g.Value("awc_cache_dep_templates", float64(st.DepTemplates), "page")
		g.Value("awc_cache_dep_instances", float64(st.DepInstances), "page")
		g.Value("awc_cache_variant_bytes", float64(st.VariantBytes), "page")
	})
	return a
}

// clusterCounter maps one cluster counter family to the cluster.Stats
// field it mirrors.
type clusterCounter struct {
	name string
	help string
	get  func(*ClusterStats) uint64
}

var clusterCounters = []clusterCounter{
	{"awc_cluster_remote_hits_total", "Misses the key's owner answered, from its cache or by running the handler. Mirrors cluster.Stats.RemoteHits.",
		func(s *ClusterStats) uint64 { return s.RemoteHits }},
	{"awc_cluster_remote_misses_total", "Misses the key's owner did not answer: not held, refused, unreachable or discarded here. Mirrors cluster.Stats.RemoteMisses.",
		func(s *ClusterStats) uint64 { return s.RemoteMisses }},
	{"awc_cluster_fetch_aborts_total", "Owner answers discarded because an invalidation raced the round trip. Mirrors cluster.Stats.FetchAborts.",
		func(s *ClusterStats) uint64 { return s.FetchAborts }},
	{"awc_cluster_fetch_errors_total", "Peer calls that failed mid-fetch. Mirrors cluster.Stats.FetchErrors.",
		func(s *ClusterStats) uint64 { return s.FetchErrors }},
	{"awc_cluster_offers_sent_total", "Pages replicated to their owner nodes; only a remote without Resolve offers. Mirrors cluster.Stats.OffersSent.",
		func(s *ClusterStats) uint64 { return s.OffersSent }},
	{"awc_cluster_offers_rejected_total", "Replica offers an owner's byte budget refused. Mirrors cluster.Stats.OffersRejected.",
		func(s *ClusterStats) uint64 { return s.OffersRejected }},
	{"awc_cluster_inv_sent_total", "Invalidation broadcasts delivered, counted per peer: one frame per write request, however many statements it wrote. Mirrors cluster.Stats.InvSent.",
		func(s *ClusterStats) uint64 { return s.InvSent }},
	{"awc_cluster_inv_broadcast_failures_total", "Invalidation/flush sends a peer never applied (down, partitioned, timed out). Mirrors cluster.Stats.InvBroadcastFailures.",
		func(s *ClusterStats) uint64 { return s.InvBroadcastFailures }},
	{"awc_cluster_ping_failures_total", "Background health probes that failed. Mirrors cluster.Stats.PingFailures.",
		func(s *ClusterStats) uint64 { return s.PingFailures }},
	{"awc_cluster_breaker_skips_total", "Peer calls short-circuited by an open circuit breaker. Mirrors cluster.Stats.BreakerSkips.",
		func(s *ClusterStats) uint64 { return s.BreakerSkips }},
	{"awc_cluster_gap_flushes_total", "Quarantine flushes forced by a detected invalidation-sequence gap. Mirrors cluster.Stats.GapFlushes.",
		func(s *ClusterStats) uint64 { return s.GapFlushes }},
	{"awc_cluster_stale_fetch_rejects_total", "Owner answers discarded because the owner had missed invalidations the requester had started. Mirrors cluster.Stats.StaleFetchRejects.",
		func(s *ClusterStats) uint64 { return s.StaleFetchRejects }},
	{"awc_cluster_stale_put_rejects_total", "Replica offers refused because the offerer had missed invalidations. Mirrors cluster.Stats.StalePutRejects.",
		func(s *ClusterStats) uint64 { return s.StalePutRejects }},
	{"awc_cluster_gets_served_total", "Peer gets (forwarded misses and fetches) this node answered, found or not. Mirrors cluster.Stats.GetsServed.",
		func(s *ClusterStats) uint64 { return s.GetsServed }},
	{"awc_cluster_gets_generated_total", "Peer misses this node answered by running the handler as the key's owner. Mirrors cluster.Stats.GetsGenerated.",
		func(s *ClusterStats) uint64 { return s.GetsGenerated }},
	{"awc_cluster_puts_applied_total", "Replica pages this node accepted. Mirrors cluster.Stats.PutsApplied.",
		func(s *ClusterStats) uint64 { return s.PutsApplied }},
	{"awc_cluster_puts_rejected_total", "Replica pages this node refused (over budget or stale). Mirrors cluster.Stats.PutsRejected.",
		func(s *ClusterStats) uint64 { return s.PutsRejected }},
	{"awc_cluster_inv_applied_total", "Peer invalidations this node applied, counted per write capture (statement), so a frame carrying an INSERT and an UPDATE adds two. Mirrors cluster.Stats.InvApplied.",
		func(s *ClusterStats) uint64 { return s.InvApplied }},
	{"awc_cluster_flush_applied_total", "Peer flushes this node applied. Mirrors cluster.Stats.FlushApplied.",
		func(s *ClusterStats) uint64 { return s.FlushApplied }},
	{"awc_cluster_pages_removed_total", "Pages removed by peer invalidations. Mirrors cluster.Stats.PagesRemoved.",
		func(s *ClusterStats) uint64 { return s.PagesRemoved }},
}

// peerStateNames are the one-hot dimensions of awc_cluster_peer_state.
var peerStateNames = []string{"healthy", "suspect", "down"}

// WatchCluster exports the peer tier: the mirrored counters, per-peer
// health as a one-hot gauge (awc_cluster_peer_state{peer,state} is 1 for
// the peer's current state, 0 otherwise), the per-state totals, and the
// fetch/offer/broadcast latency histograms.
func (a *Admin) WatchCluster(n *ClusterNode) *Admin {
	a.node = n
	a.reg.Collect(func(g *telemetry.Gatherer) {
		for _, c := range clusterCounters {
			g.Declare(c.name, telemetry.TypeCounter, c.help)
		}
		g.Declare("awc_cluster_peer_state", telemetry.TypeGauge,
			"Peer health one-hot: 1 for the peer's current state, 0 for its other states. Mirrors cluster.Node.PeerStates.",
			"peer", "state")
		g.Declare("awc_cluster_peers", telemetry.TypeGauge,
			"Peers currently in each health state. Mirrors cluster.Stats.PeersHealthy/PeersSuspect/PeersDown.",
			"state")
		g.Declare("awc_cluster_fetch_duration_seconds", telemetry.TypeHistogram,
			"Latency of the owner round trip after a local miss (Resolve or Fetch, answered or not, including an owner's generation; calls that met an open breaker are excluded). Mirrors cluster.Stats.FetchLatency.")
		g.Declare("awc_cluster_offer_duration_seconds", telemetry.TypeHistogram,
			"Latency of Offer (page replication to the key's owner; only a remote without Resolve offers). Mirrors cluster.Stats.OfferLatency.")
		g.Declare("awc_cluster_broadcast_duration_seconds", telemetry.TypeHistogram,
			"Latency of one invalidation/flush broadcast — one frame per write request — including its serialization wait. Mirrors cluster.Stats.BroadcastLatency.")

		st := n.Snapshot()
		for _, c := range clusterCounters {
			g.Value(c.name, float64(c.get(&st)))
		}
		for addr, ps := range n.PeerStates() {
			cur := ps.String()
			for _, state := range peerStateNames {
				v := 0.0
				if state == cur {
					v = 1
				}
				g.Value("awc_cluster_peer_state", v, addr, state)
			}
		}
		g.Value("awc_cluster_peers", float64(st.PeersHealthy), "healthy")
		g.Value("awc_cluster_peers", float64(st.PeersSuspect), "suspect")
		g.Value("awc_cluster_peers", float64(st.PeersDown), "down")
		g.Histo("awc_cluster_fetch_duration_seconds", st.FetchLatency)
		g.Histo("awc_cluster_offer_duration_seconds", st.OfferLatency)
		g.Histo("awc_cluster_broadcast_duration_seconds", st.BroadcastLatency)
	})
	return a
}

// Compile-time check that the weave types the collectors rely on keep the
// shapes the facade re-exports.
var _ = weave.AppStats{}
