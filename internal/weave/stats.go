package weave

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autowebcache/internal/telemetry"
)

// Outcome classifies how a request was served.
type Outcome string

// Outcomes reported in the response header and statistics.
const (
	OutcomeHit         Outcome = "hit"          // served from the cache
	OutcomeSemanticHit Outcome = "semantic-hit" // served from the cache under a semantic TTL window
	OutcomeCoalesced   Outcome = "coalesced"    // miss coalesced onto a concurrent flight's result
	OutcomeRemoteHit   Outcome = "remote-hit"   // local miss served by a cluster peer (owner fetch)
	OutcomeFragmentHit Outcome = "fragment-hit" // every cacheable fragment served from cache; only holes ran
	OutcomeAssembled   Outcome = "assembled"    // page assembled from a mix of fragment hits and generations
	OutcomeMiss        Outcome = "miss"         // generated, then inserted
	OutcomeWrite       Outcome = "write"        // write interaction (invalidates)
	OutcomeUncacheable Outcome = "uncacheable"  // bypassed the cache by rule
	OutcomeNoCache     Outcome = "nocache"      // served by an unwoven (baseline) app
	OutcomeError       Outcome = "error"        // handler returned a non-200 status
	// OutcomeNotModified is a conditional request answered 304 from the
	// cache: the client's If-None-Match matched the entry's precomputed
	// ETag, so the hit transferred zero body bytes. It counts as a hit
	// (the cache spared the handler) with its own bucket and latency
	// distribution — a 304 is cheaper than a body hit and the split shows
	// it.
	OutcomeNotModified Outcome = "not-modified"
)

// HeaderOutcome is the response header carrying the request outcome, used by
// the client emulator to attribute hits and misses per interaction
// (Figs. 16–19).
const HeaderOutcome = "X-Autowebcache"

// HeaderFragments reports "hits/total" cacheable-fragment counts on pages
// served by fragment assembly, and HeaderCachedBytes the number of response
// body bytes that came from the cache — the load generator aggregates both
// into its cache-served byte fraction.
const (
	HeaderFragments   = "X-Autowebcache-Fragments"
	HeaderCachedBytes = "X-Autowebcache-Cached-Bytes"
)

// InteractionStats aggregates the outcomes of one interaction type.
type InteractionStats struct {
	Name string

	Requests     uint64
	Hits         uint64 // strong-consistency cache hits (including coalesced and 304s)
	SemanticHits uint64 // hits under a semantic TTL window
	// NotModified counts hits answered 304 via If-None-Match (subset of
	// Hits): the cache was consulted, the validator matched, zero body
	// bytes moved.
	NotModified  uint64
	Coalesced    uint64 // misses served by a concurrent flight (subset of Hits/SemanticHits)
	RemoteHits   uint64 // local misses served by a cluster peer
	FragmentHits uint64 // pages whose every cacheable fragment came from the cache
	Assembled    uint64 // pages assembled from a mix of fragment hits and generations
	Misses       uint64
	Writes       uint64
	Uncacheable  uint64
	Errors       uint64
	// SendFailures counts requests whose response could not be fully
	// written to the client (reset connection, gone peer). They are in
	// Requests and here, but in no outcome bucket and no latency series:
	// a duration measured against a dead client says nothing about
	// service time and would silently pollute the percentiles.
	SendFailures uint64

	// FragmentsServed / FragmentsTotal count cacheable fragments served from
	// the cache vs considered, across all fragment-assembled responses.
	FragmentsServed uint64
	FragmentsTotal  uint64
	// BytesOut is the response-body bytes of cache-governed responses (hits
	// and fragment assemblies); BytesCached is the subset that came from the
	// cache. Their ratio is the cache-served byte fraction — the metric
	// fragment caching moves when whole-page keys are poisoned by
	// personalisation.
	BytesOut    uint64
	BytesCached uint64

	TotalTime time.Duration // across all requests
	HitTime   time.Duration
	MissTime  time.Duration

	PagesInvalidated uint64 // pages removed by this interaction's writes

	// Latencies holds one fixed-bucket latency histogram per outcome that
	// occurred at least once — the data behind the per-outcome
	// request-duration series on /metrics. Sorted by outcome name.
	Latencies []OutcomeLatency
}

// OutcomeLatency is the latency distribution of one outcome class within
// one interaction.
type OutcomeLatency struct {
	Outcome Outcome
	Latency telemetry.HistSnapshot
}

// MeanResponse returns the mean response time over all requests.
func (s *InteractionStats) MeanResponse() time.Duration {
	if s.Requests == 0 {
		return 0
	}
	return s.TotalTime / time.Duration(s.Requests)
}

// MeanMiss returns the mean response time of cache misses.
func (s *InteractionStats) MeanMiss() time.Duration {
	if s.Misses == 0 {
		return 0
	}
	return s.MissTime / time.Duration(s.Misses)
}

// MissPenalty returns the extra time a miss costs on top of the overall
// average (the stacked component of Figs. 18–19).
func (s *InteractionStats) MissPenalty() time.Duration {
	p := s.MeanMiss() - s.MeanResponse()
	if p < 0 {
		return 0
	}
	return p
}

// HitRate returns hits (strong, semantic and remote) as a fraction of
// requests: every request the cache tier — local or peer — spared a handler
// execution. Fragment-assembled pages are not counted here (their holes
// still ran); see FragmentHitRate and CachedByteFraction for the
// fragment-granular view.
func (s *InteractionStats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Hits+s.SemanticHits+s.RemoteHits) / float64(s.Requests)
}

// FragmentHitRate returns the fraction of cacheable fragments served from
// the cache across this interaction's fragment-assembled responses.
func (s *InteractionStats) FragmentHitRate() float64 {
	if s.FragmentsTotal == 0 {
		return 0
	}
	return float64(s.FragmentsServed) / float64(s.FragmentsTotal)
}

// CachedByteFraction returns the fraction of cache-governed response bytes
// that were served from the cache rather than generated.
func (s *InteractionStats) CachedByteFraction() float64 {
	if s.BytesOut == 0 {
		return 0
	}
	return float64(s.BytesCached) / float64(s.BytesOut)
}

// outcomeClasses enumerates the outcomes that carry a latency histogram, in
// the order their histograms sit inside counters.lat. The order is by name,
// which is the order Latencies reports them in, so a snapshot never sorts.
// nocache counts as uncacheable but keeps its own distribution — an unwoven
// baseline's latency is a different population than a rule bypass.
var outcomeClasses = [...]Outcome{
	OutcomeAssembled, OutcomeCoalesced, OutcomeError, OutcomeFragmentHit,
	OutcomeHit, OutcomeMiss, OutcomeNoCache, OutcomeNotModified,
	OutcomeRemoteHit, OutcomeSemanticHit, OutcomeUncacheable, OutcomeWrite,
}

// classIndex maps an outcome to its histogram slot. A switch, not a map:
// it runs on the zero-alloc page-hit path and must stay branch-only.
func classIndex(o Outcome) int {
	switch o {
	case OutcomeAssembled:
		return 0
	case OutcomeCoalesced:
		return 1
	case OutcomeFragmentHit:
		return 3
	case OutcomeHit:
		return 4
	case OutcomeMiss:
		return 5
	case OutcomeNoCache:
		return 6
	case OutcomeNotModified:
		return 7
	case OutcomeRemoteHit:
		return 8
	case OutcomeSemanticHit:
		return 9
	case OutcomeUncacheable:
		return 10
	case OutcomeWrite:
		return 11
	default:
		return 2 // OutcomeError and anything unrecognised
	}
}

// counters is the lock-free accumulator behind one interaction's stats:
// every field is an atomic so the per-request hot path never takes a lock.
//
// Each served request is recorded once, in its outcome's latency histogram,
// whose bucket counts and sum already are that outcome's count and time;
// every outcome count and time in InteractionStats is derived from them at
// snapshot time (tally.stats). The counters kept beside the histograms carry
// what no histogram can. A recorder adds a "whole" before its "part"
// (the coalesced histogram before semanticCoalesced, fragsTotal before
// fragsServed, bytesOut before bytesCached) and read loads each part before
// its whole, so no snapshot sees a part exceed its whole.
type counters struct {
	// lat holds one fixed-bucket latency histogram per outcome class.
	// DurationHist.Observe is atomics-only, keeping Record* allocation-free.
	lat [len(outcomeClasses)]telemetry.DurationHist

	// semanticCoalesced counts the coalesced serves of semantic-window
	// interactions: they sit in the coalesced histogram but count as
	// SemanticHits, not Hits.
	semanticCoalesced atomic.Uint64
	sendFailures      atomic.Uint64
	fragsServed       atomic.Uint64
	fragsTotal        atomic.Uint64
	bytesOut          atomic.Uint64
	bytesCached       atomic.Uint64
	pagesInvalidated  atomic.Uint64
}

// tally is one point-in-time read of a counters value, or the sum of
// several (Totals): the raw material every InteractionStats is derived from.
type tally struct {
	lat               [len(outcomeClasses)]telemetry.HistSnapshot
	semanticCoalesced uint64
	sendFailures      uint64
	fragsServed       uint64
	fragsTotal        uint64
	bytesOut          uint64
	bytesCached       uint64
	pagesInvalidated  uint64
}

// read loads c, each part before its whole (see counters). Empty histograms
// are left zero, so an idle outcome costs no snapshot allocation.
func (c *counters) read() tally {
	// A composite literal evaluates its loads in lexical order: parts first.
	t := tally{
		semanticCoalesced: c.semanticCoalesced.Load(),
		fragsServed:       c.fragsServed.Load(),
		fragsTotal:        c.fragsTotal.Load(),
		bytesCached:       c.bytesCached.Load(),
		bytesOut:          c.bytesOut.Load(),
		sendFailures:      c.sendFailures.Load(),
		pagesInvalidated:  c.pagesInvalidated.Load(),
	}
	for i := range c.lat {
		if !c.lat[i].Empty() {
			t.lat[i] = c.lat[i].Snapshot()
		}
	}
	return t
}

// add sums o into t (for Totals).
func (t *tally) add(o *tally) {
	for i := range t.lat {
		t.lat[i].Merge(o.lat[i])
	}
	t.semanticCoalesced += o.semanticCoalesced
	t.sendFailures += o.sendFailures
	t.fragsServed += o.fragsServed
	t.fragsTotal += o.fragsTotal
	t.bytesOut += o.bytesOut
	t.bytesCached += o.bytesCached
	t.pagesInvalidated += o.pagesInvalidated
}

// stats derives the InteractionStats record from t — the one derivation
// behind both Snapshot and Totals. Every count comes from the same read of
// the histograms, so Hits, SemanticHits and RemoteHits never sum past
// Requests.
func (t *tally) stats(name string) InteractionStats {
	n := func(o Outcome) uint64 { return t.lat[classIndex(o)].Count }
	s := InteractionStats{
		Name:             name,
		Requests:         t.sendFailures,
		SemanticHits:     n(OutcomeSemanticHit) + t.semanticCoalesced,
		NotModified:      n(OutcomeNotModified),
		Coalesced:        n(OutcomeCoalesced),
		RemoteHits:       n(OutcomeRemoteHit),
		FragmentHits:     n(OutcomeFragmentHit),
		Assembled:        n(OutcomeAssembled),
		Misses:           n(OutcomeMiss),
		Writes:           n(OutcomeWrite),
		Uncacheable:      n(OutcomeUncacheable) + n(OutcomeNoCache),
		Errors:           n(OutcomeError),
		SendFailures:     t.sendFailures,
		FragmentsServed:  t.fragsServed,
		FragmentsTotal:   t.fragsTotal,
		BytesOut:         t.bytesOut,
		BytesCached:      t.bytesCached,
		PagesInvalidated: t.pagesInvalidated,
	}
	// Coalesced and 304 serves are strong hits; a semantic-window
	// coalesced serve is a semantic hit instead.
	s.Hits = n(OutcomeHit) + s.Coalesced - t.semanticCoalesced + s.NotModified
	for i, o := range outcomeClasses {
		h := t.lat[i]
		if h.Count == 0 {
			continue
		}
		s.Requests += h.Count
		// The histogram sum is float seconds of an integer nanosecond total;
		// rounding recovers the nanoseconds exactly while a sum stays below
		// 2^52 ns (about 52 days of request time).
		d := time.Duration(math.Round(h.Sum * 1e9))
		s.TotalTime += d
		// Writes, bypasses, errors and partial assemblies count in TotalTime
		// only: an assembly paid some generators but not all, and MeanMiss's
		// denominator counts only true misses.
		switch o {
		case OutcomeHit, OutcomeSemanticHit, OutcomeCoalesced, OutcomeRemoteHit,
			OutcomeFragmentHit, OutcomeNotModified:
			s.HitTime += d
		case OutcomeMiss:
			s.MissTime += d
		}
		s.Latencies = append(s.Latencies, OutcomeLatency{Outcome: o, Latency: h})
	}
	return s
}

// Stats collects per-interaction statistics. It is safe for concurrent use;
// recording is lock-free (a sync.Map read plus atomic adds).
type Stats struct {
	m sync.Map // interaction name -> *counters
}

// NewStats creates an empty collector.
func NewStats() *Stats {
	return &Stats{}
}

// get returns the interaction's accumulator, creating it on first use.
func (s *Stats) get(name string) *counters {
	if c, ok := s.m.Load(name); ok {
		return c.(*counters)
	}
	c, _ := s.m.LoadOrStore(name, &counters{})
	return c.(*counters)
}

// Record accounts one request.
func (s *Stats) Record(name string, outcome Outcome, d time.Duration, invalidated int) {
	s.RecordServed(name, outcome, d, invalidated, 0, 0)
}

// RecordServed is Record with response-byte accounting: bytesOut is the
// response body size and bytesCached the subset served from the cache (for
// a whole-page hit the two are equal; for a miss bytesCached is 0).
// invalidated counts only for write outcomes.
func (s *Stats) RecordServed(name string, outcome Outcome, d time.Duration, invalidated, bytesOut, bytesCached int) {
	c := s.get(name)
	c.lat[classIndex(outcome)].Observe(d)
	if invalidated > 0 && outcome == OutcomeWrite {
		c.pagesInvalidated.Add(uint64(invalidated))
	}
	c.addBytes(bytesOut, bytesCached)
}

// addBytes accounts response bytes, the whole before the part.
func (c *counters) addBytes(bytesOut, bytesCached int) {
	if bytesOut > 0 {
		c.bytesOut.Add(uint64(bytesOut))
	}
	if bytesCached > 0 {
		c.bytesCached.Add(uint64(bytesCached))
	}
}

// RecordSendFailure accounts a request whose response could not be fully
// written to the client. The request lands in no outcome bucket and —
// deliberately — in no latency histogram: the duration of a failed send
// measures the client's death, not service time, and must not skew the
// percentiles the latency records report.
func (s *Stats) RecordSendFailure(name string) {
	s.get(name).sendFailures.Add(1)
}

// RecordCoalesced accounts a miss that was served by a concurrent flight's
// result: it lands in the coalesced histogram and counts as the hit a plain
// cache hit would have recorded (semantic for a semantic-window
// interaction, strong otherwise). bytes is the served body size — the page
// came from the cache layer, so it counts fully towards the cached-byte
// fraction.
func (s *Stats) RecordCoalesced(name string, semantic bool, d time.Duration, bytes int) {
	c := s.get(name)
	c.lat[classIndex(OutcomeCoalesced)].Observe(d)
	if semantic {
		c.semanticCoalesced.Add(1)
	}
	c.addBytes(bytes, bytes)
}

// RecordFragments accounts one fragment-assembled response: the page-level
// outcome (fragment-hit, assembled, miss or error), the cacheable-fragment
// counts (served from cache / total considered) and the byte split.
func (s *Stats) RecordFragments(name string, outcome Outcome, d time.Duration, served, total, bytesOut, bytesCached int) {
	s.RecordServed(name, outcome, d, 0, bytesOut, bytesCached)
	c := s.get(name)
	c.fragsTotal.Add(uint64(total))
	c.fragsServed.Add(uint64(served))
}

// Snapshot returns a copy of the per-interaction statistics, sorted by name.
func (s *Stats) Snapshot() []InteractionStats {
	var out []InteractionStats
	s.m.Range(func(k, v any) bool {
		t := v.(*counters).read()
		out = append(out, t.stats(k.(string)))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Totals aggregates all interactions into one record named "TOTAL": it sums
// the raw reads, then derives once.
func (s *Stats) Totals() InteractionStats {
	var total tally
	s.m.Range(func(_, v any) bool {
		t := v.(*counters).read()
		total.add(&t)
		return true
	})
	return total.stats("TOTAL")
}

// Reset clears all statistics (used between the warm-up and measurement
// phases of the experiments, mirroring the paper's 15-minute warm-up).
func (s *Stats) Reset() {
	s.m.Clear()
}
