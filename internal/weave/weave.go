package weave

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/servlet"
)

// Remote is the optional cluster peer tier consulted between a local cache
// miss and handler execution (internal/cluster.Node implements it, with the
// optional Resolver method the weave prefers when present). Fetch asks the
// key's owner node for the page; on success the implementation has
// inserted a local replica through the cache's epoch guard
// (cache.InsertSince, with its dependency information, so local
// invalidation covers it) and returns the stored immutable view. A replica
// the guard refuses — a write it depends on raced the round trip or is
// still open — is a miss, and the weave regenerates the page. Offer
// replicates a freshly generated page to the key's owner; its deps slice
// is shared with the cache and must be treated read-only. Either side may
// be byte-governed: a fetched replica the local budget refuses is still
// served (just not retained), and an owner at its budget refuses offers —
// both degrade to extra misses, never to unbounded memory. With Resolver,
// Fetch and Offer are not called.
type Remote interface {
	Fetch(ctx context.Context, key string) (cache.Page, bool)
	Offer(key string, body []byte, contentType string, deps []analysis.Query, ttl time.Duration)
}

// Rules are the weaving rules: the per-application cacheability knowledge
// that the paper keeps outside both the application and the caching library
// (§4.2 "Weaving rules specification"). Interaction names not mentioned get
// the default treatment: read interactions are cached with strong
// consistency, write interactions invalidate.
type Rules struct {
	// Uncacheable lists read interactions that must bypass the cache —
	// the §4.3 hidden-state problem (e.g. TPC-W Home and SearchRequest use
	// random advertisement banners).
	Uncacheable []string
	// Semantic grants interactions a freshness window: pages are cached and
	// served for the window's duration regardless of writes (e.g. TPC-W
	// BestSellers, 30 s per TPC-W clauses 3.1.4.1 and 6.3.3.1).
	Semantic map[string]time.Duration
	// KeyCookies names cookies whose values are part of every page's
	// identity — the escape hatch for applications that carry request
	// parameters in cookies (§4.3) instead of the URL.
	KeyCookies []string
	// Fragments enables fragment-granular (ESI-style) caching for handlers
	// that declare a segment decomposition (servlet.HandlerInfo.Fragments):
	// pages are assembled from per-fragment cache hits and only the missing
	// fragments' generators (plus the uncacheable holes) execute. Handlers
	// without segments keep whole-page advice. Fragment advice takes
	// precedence over an Uncacheable rule — a fragmented handler is expected
	// to have moved its hidden state (ad banners, per-user greetings) into
	// holes, which regenerate on every request.
	Fragments bool
}

// apply merges the rules into a handler description.
func (r Rules) apply(h servlet.HandlerInfo) servlet.HandlerInfo {
	for _, name := range r.Uncacheable {
		if name == h.Name {
			h.Uncacheable = true
		}
	}
	if ttl, ok := r.Semantic[h.Name]; ok {
		h.TTL = ttl
	}
	return h
}

// Woven is a cache-enabled web application: every handler wrapped with the
// appropriate advice, sharing one page cache and one statistics collector.
type Woven struct {
	mux *http.ServeMux
	// exact maps each registered plain path to its advice, so a request
	// for one skips the mux's pattern matching (see ServeHTTP).
	exact      map[string]http.Handler
	cache      *cache.Cache
	stats      *Stats
	handlers   []servlet.HandlerInfo
	keyCookies []string

	// remote, when set, is the cluster peer tier; resolver is the same
	// value when it implements Resolver (see resolveMiss).
	remote   Remote
	resolver Resolver

	// routes maps each cacheable read handler's path to its route, for
	// misses peers forward here (ResolvePeer).
	routes map[string]route

	// flights coalesces concurrent misses on one page or fragment key (see
	// resolveMiss).
	flightMu sync.Mutex
	flights  map[string]*flight

	// flightAborts counts flights whose freshly inserted page was discarded
	// because an invalidation sweep raced the generation (the epoch guard).
	flightAborts atomic.Uint64
}

// pageKey computes a request's cache identity, including rule-named cookies.
func (w *Woven) pageKey(r *http.Request) string {
	if len(w.keyCookies) == 0 {
		return servlet.PageKey(r)
	}
	return servlet.PageKeyWithCookies(r, w.keyCookies)
}

// New weaves the caching aspect into an application. The application's
// handlers must issue their queries through a RecordingConn created with
// NewConn, passing the request context to every call — that connection is
// the JDBC-capture join point.
//
// cache may be nil, producing the baseline ("NoCache") version of the
// application with statistics but no caching — the paper's comparison
// configuration.
func New(handlers []servlet.HandlerInfo, c *cache.Cache, rules Rules) (*Woven, error) {
	w := &Woven{
		mux:        http.NewServeMux(),
		exact:      make(map[string]http.Handler, len(handlers)),
		cache:      c,
		stats:      NewStats(),
		keyCookies: append([]string(nil), rules.KeyCookies...),
		flights:    make(map[string]*flight),
		routes:     make(map[string]route),
	}
	seen := make(map[string]bool, len(handlers))
	for _, h := range handlers {
		h := rules.apply(h)
		if len(h.Fragments) > 0 {
			if err := validateFragments(h); err != nil {
				return nil, err
			}
			if h.Fn == nil {
				// The monolithic form: segments composed in order, so the
				// whole-page and baseline configurations serve the same bytes
				// the fragment assembly produces.
				h.Fn = servlet.ComposeSegments(h.Fragments)
			}
		}
		if h.Name == "" || h.Path == "" || h.Fn == nil {
			return nil, fmt.Errorf("weave: handler %+v missing name, path or function", h.Name)
		}
		if seen[h.Path] {
			return nil, fmt.Errorf("weave: duplicate handler path %s", h.Path)
		}
		seen[h.Path] = true
		w.handlers = append(w.handlers, h)
		var advice http.Handler
		switch {
		case c == nil:
			advice = w.passthrough(h)
		case h.Write:
			advice = w.afterAdvice(h)
		case rules.Fragments && len(h.Fragments) > 0:
			segs := w.keySegments(h.Fragments)
			w.routes[h.Path] = route{h: h, segs: segs}
			advice = w.fragmentAdvice(h, segs)
		case h.Uncacheable:
			advice = w.uncacheable(h)
		default:
			w.routes[h.Path] = route{h: h}
			advice = w.aroundAdvice(h)
		}
		w.mux.Handle(h.Path, advice)
		// A plain path is the most specific pattern matching itself, so
		// the mux would pick this advice for it too. Patterns with a
		// method, host or wildcard stay with the mux.
		if strings.HasPrefix(h.Path, "/") && !strings.ContainsAny(h.Path, " {") {
			w.exact[h.Path] = advice
		}
	}
	return w, nil
}

// validateFragments checks a handler's segment declaration: write
// interactions cannot be fragmented, every segment needs a generator, and
// fragment ids must be unique within the page (they key the cache).
func validateFragments(h servlet.HandlerInfo) error {
	if h.Write {
		return fmt.Errorf("weave: handler %s: write interactions cannot declare fragments", h.Name)
	}
	ids := make(map[string]bool, len(h.Fragments))
	for i, seg := range h.Fragments {
		if seg.Gen == nil {
			return fmt.Errorf("weave: handler %s: segment %d has no generator", h.Name, i)
		}
		if !seg.Cacheable() {
			continue
		}
		if ids[seg.ID] {
			return fmt.Errorf("weave: handler %s: duplicate fragment id %q", h.Name, seg.ID)
		}
		ids[seg.ID] = true
	}
	return nil
}

// ServeHTTP dispatches to the woven handlers: a request for a registered
// path goes straight to its advice; anything else — an unregistered path
// falling to a catch-all such as RUBiS's "/", a path the mux cleans and
// redirects, a 404 — goes through the ServeMux, as every request once did.
func (w *Woven) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if h, ok := w.exact[r.URL.Path]; ok {
		r.Pattern = r.URL.Path
		h.ServeHTTP(rw, r)
		return
	}
	w.mux.ServeHTTP(rw, r)
}

// SetRemote attaches the cluster peer tier (nil detaches). It must be
// called before the Woven serves traffic; the field is read on every
// request without synchronisation. A Remote that implements Resolver
// resolves misses at the key's owner; one that does not keeps fetch +
// offer. The local-hit fast path is unaffected: a page present in the
// local cache is served before the remote tier is ever consulted, so
// clustering costs locally-owned hits nothing.
func (w *Woven) SetRemote(r Remote) {
	w.remote = r
	w.resolver, _ = r.(Resolver)
}

// Stats returns the per-interaction statistics collector.
func (w *Woven) Stats() *Stats { return w.stats }

// AppStats is a point-in-time snapshot of everything the weave layer
// measures: per-interaction statistics, their aggregate, and the epoch
// guard's abort count. It is the weave's half of the unified Snapshot()
// convention the telemetry layer scrapes.
type AppStats struct {
	Interactions []InteractionStats
	Total        InteractionStats
	FlightAborts uint64
}

// Snapshot returns the weave layer's current statistics.
func (w *Woven) Snapshot() AppStats {
	return AppStats{
		Interactions: w.stats.Snapshot(),
		Total:        w.stats.Totals(),
		FlightAborts: w.flightAborts.Load(),
	}
}

// Cache returns the page cache (nil for the baseline configuration).
func (w *Woven) Cache() *cache.Cache { return w.cache }

// Handlers returns the effective handler descriptions after rule
// application. The returned slice is the Woven's own immutable view —
// frozen at New — shared across calls; callers must not modify it.
func (w *Woven) Handlers() []servlet.HandlerInfo {
	return w.handlers
}

// responseBuffer captures a handler's response so it can be both cached and
// replayed to the client.
type responseBuffer struct {
	header http.Header
	body   bytes.Buffer
	status int
}

// rbPool recycles response buffers (and their grown body bytes) across
// requests, taking the steady-state miss path's capture allocation off the
// per-request budget.
var rbPool = sync.Pool{
	New: func() any {
		return &responseBuffer{header: make(http.Header), status: http.StatusOK}
	},
}

func newResponseBuffer() *responseBuffer {
	return rbPool.Get().(*responseBuffer)
}

// release resets the buffer and returns it to the pool. Callers must not
// touch rb (or slices obtained from rb.body.Bytes()) afterwards.
func (rb *responseBuffer) release() {
	for k := range rb.header {
		delete(rb.header, k)
	}
	rb.body.Reset()
	rb.status = http.StatusOK
	rbPool.Put(rb)
}

func (rb *responseBuffer) Header() http.Header { return rb.header }

func (rb *responseBuffer) Write(p []byte) (int, error) { return rb.body.Write(p) }

func (rb *responseBuffer) WriteHeader(status int) { rb.status = status }

func (rb *responseBuffer) contentType() string {
	if ct := rb.header.Get("Content-Type"); ct != "" {
		return ct
	}
	return "text/html; charset=utf-8"
}

// aroundAdvice implements Fig. 10: surround a read interaction with a cache
// check, bypassing the handler on a hit and inserting the page (with its
// dependency information) on a miss. The miss itself — coalescing, the
// owner's round trip, generation, guarded insert — is resolveMiss's; this
// advice only decides how each resolution is served and accounted.
func (w *Woven) aroundAdvice(h servlet.HandlerInfo) http.Handler {
	hitOutcome := OutcomeHit
	if h.TTL > 0 {
		hitOutcome = OutcomeSemanticHit
	}
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		key := w.pageKey(r)
		if pg, ok := w.cache.Lookup(key); ok {
			sv := w.servePage(rw, r, pg, hitOutcome)
			w.recordServe(h.Name, sv, time.Since(start), true)
			return
		}
		m := w.resolveMiss(r, key, h.TTL, h.Fn, w.keyCookies, true)
		if m.outcome == OutcomeMiss && m.rb == nil {
			// The key's owner generated the page for this request: serve
			// the local replica, a miss that ran no handler here.
			sv := w.servePage(rw, r, m.view.Page, OutcomeMiss)
			w.recordServe(h.Name, sv, time.Since(start), false)
			return
		}
		switch m.outcome {
		case "":
			// The client went away while waiting on a flight.
		case OutcomeHit, OutcomeRemoteHit:
			if m.outcome == OutcomeHit {
				m.outcome = hitOutcome
			}
			sv := w.servePage(rw, r, m.view.Page, m.outcome)
			w.recordServe(h.Name, sv, time.Since(start), true)
		case OutcomeCoalesced:
			sv := w.servePage(rw, r, m.view.Page, OutcomeCoalesced)
			switch {
			case sv.err != nil:
				w.stats.RecordSendFailure(h.Name)
			case sv.outcome == OutcomeNotModified:
				// The follower's conditional request revalidated against
				// the flight's page: a 304, not a coalesced body serve.
				w.stats.RecordServed(h.Name, OutcomeNotModified, time.Since(start), 0, 0, 0)
			default:
				w.stats.RecordCoalesced(h.Name, h.TTL > 0, time.Since(start), sv.bytes)
			}
		default:
			// This request ran the handler: replay its captured response.
			// m.view, when the generation was inserted and survived the epoch
			// guard, is the stored entry: the choke point serves the first
			// response with the entry's validator and negotiated encoding, so
			// clients can revalidate (and caches vary) from the very first
			// transfer.
			sv := w.serveCaptured(rw, r, m.rb, m.outcome, m.view.Page)
			m.rb.release()
			if sv.err != nil {
				w.stats.RecordSendFailure(h.Name)
				return
			}
			// Byte accounting covers cache-governed 200s only (as in the
			// fragment path): error responses would skew the cached-byte
			// fraction.
			bytesOut := sv.bytes
			if m.outcome == OutcomeError {
				bytesOut = 0
			}
			w.stats.RecordServed(h.Name, m.outcome, time.Since(start), 0, bytesOut, 0)
		}
	})
}

// afterAdvice implements Fig. 11: run the write interaction, then use its
// captured invalidation information to remove the affected cache entries.
func (w *Woven) afterAdvice(h servlet.HandlerInfo) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rb := newResponseBuffer()
		defer rb.release()
		_, invalidated := w.run(h.Fn, rb, r)
		outcome := OutcomeWrite
		if rb.status != http.StatusOK {
			outcome = OutcomeError
		}
		sv := w.serveCaptured(rw, r, rb, outcome, cache.Page{})
		if sv.err != nil {
			w.stats.RecordSendFailure(h.Name)
			return
		}
		w.stats.Record(h.Name, outcome, time.Since(start), invalidated)
	})
}

// run executes a handler or fragment generator under a fresh Recorder — the
// JDBC-capture join point — and applies the write captures it recorded on
// the way out, whether fn returns or panics. A statement commits inside
// RecordingConn.Exec, so its invalidation must not depend on the rest of the
// handler running (§3.2: the failure mode is a miss, never a stale hit).
// Every woven handler runs through here, so a read that writes — a
// misclassified interaction, an Uncacheable bypass, a fragment hole —
// invalidates exactly like a write interaction. It returns the recorder, for
// the caller's caching decision, and how many entries the writes removed.
func (w *Woven) run(fn http.HandlerFunc, rw http.ResponseWriter, r *http.Request) (rec *Recorder, invalidated int) {
	ctx, rec := WithRecorder(r.Context())
	defer func() { invalidated = w.applyInvalidations(rec) }()
	fn(rw, r.WithContext(ctx))
	return rec, 0
}

// applyInvalidations hands the recorder's write captures to the cache as one
// invalidation — one sweep, one peer broadcast — and returns how many
// entries they removed. A capture the engine could not analyse, or a sweep
// that failed, makes the cache flush instead (see Cache.InvalidateWrite);
// over-invalidation is always sound, so the error needs no handling here.
func (w *Woven) applyInvalidations(rec *Recorder) int {
	n, _ := w.cache.InvalidateWrite(rec.Writes()...)
	return n
}

// uncacheable serves a read interaction directly, bypassing the cache — the
// developer-marked hidden-state escape hatch of §4.3.
func (w *Woven) uncacheable(h servlet.HandlerInfo) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rw.Header().Set(HeaderOutcome, string(OutcomeUncacheable))
		w.run(h.Fn, rw, r)
		w.stats.Record(h.Name, OutcomeUncacheable, time.Since(start), 0)
	})
}

// passthrough serves the baseline (NoCache) configuration with statistics.
func (w *Woven) passthrough(h servlet.HandlerInfo) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rw.Header().Set(HeaderOutcome, string(OutcomeNoCache))
		h.Fn(rw, r)
		w.stats.Record(h.Name, OutcomeNoCache, time.Since(start), 0)
	})
}
