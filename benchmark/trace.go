package awcbench

import (
	"context"
	"net/http"
	"sync"
	"time"

	"autowebcache"
	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/datasource"
	"autowebcache/internal/weave"
)

// Span names. The request span is the root of every traced request; the
// others are the calls the stack makes across a layer boundary.
const (
	spanRequest   = "request"
	spanHandler   = "handler"
	spanQuery     = "datasource.query"
	spanExec      = "datasource.exec"
	spanWrite     = "serve.write"
	spanFetch     = "cluster.fetch"
	spanOffer     = "cluster.offer"
	spanBroadcast = "cluster.broadcast"
)

// Span is one timed call. Start and End are nanoseconds since the trace
// began; Parent is the ID of the span that caused this one (-1 for a
// request span) and Req numbers the request all its spans share.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Outcome string `json:"outcome,omitempty"` // request spans: X-Autowebcache
}

// Tracer records spans in memory. It assumes what the traced run
// guarantees: one client, so one request in flight, so the open spans form
// a stack. Calls made on behalf of no traced request (a peer node applying
// a broadcast) find an empty stack and are not recorded.
type Tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []Span
	open  []int
	reqs  int
}

// NewTracer returns a tracer that is switched off.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Enable switches span recording on or off; the wrappers stay in place
// either way, so the untraced segments run the same code minus the spans.
func (t *Tracer) Enable(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// begin opens a span under the innermost open one and returns its ID, or
// -1 when nothing is recorded: tracing is off, or a non-request span has no
// request to belong to.
func (t *Tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on || (name != spanRequest && len(t.open) == 0) {
		return -1
	}
	s := Span{ID: len(t.spans), Parent: -1, Name: name}
	if name == spanRequest {
		t.reqs++
	} else {
		s.Parent = t.open[len(t.open)-1]
	}
	s.Req = t.reqs
	t.open = append(t.open, s.ID)
	// The clock is read last, so the span does not time its own set-up.
	s.Start = int64(time.Since(t.t0))
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes the span begin returned.
func (t *Tracer) end(id int, outcome string) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Outcome = outcome
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
}

// SelfTimes returns, for each span, its duration minus the part its direct
// children cover.
func SelfTimes(spans []Span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// --- interposition at the public seams -------------------------------------

// backend is what both shipped drivers are: a connection that reports its
// schema and serialises bootstrap. The analysis engine and the seeder find
// these capabilities by type assertion, so the wrapper embeds them rather
// than hide them — the traced stack would otherwise analyse conservatively
// and seed unlocked.
type backend interface {
	datasource.Conn
	datasource.SchemaReporter
	datasource.Bootstrapper
}

// tracedConn wraps the datasource connection the runtime is built over.
// Bootstrap hands the seeder the inner connection, so seeding is untraced.
type tracedConn struct {
	backend
	t *Tracer
	// seen collects every distinct statement text, for the parser replay.
	mu   sync.Mutex
	seen map[string]bool
}

func (c *tracedConn) record(sql string) {
	c.mu.Lock()
	c.seen[sql] = true
	c.mu.Unlock()
}

func (c *tracedConn) Query(ctx context.Context, sql string, args ...any) (*datasource.Rows, error) {
	id := c.t.begin(spanQuery)
	defer c.t.end(id, "")
	c.record(sql)
	return c.backend.Query(ctx, sql, args...)
}

func (c *tracedConn) Exec(ctx context.Context, sql string, args ...any) (datasource.Result, error) {
	id := c.t.begin(spanExec)
	defer c.t.end(id, "")
	c.record(sql)
	return c.backend.Exec(ctx, sql, args...)
}

// traceHandlers wraps every handler function in a handler span.
func traceHandlers(t *Tracer, hs []autowebcache.HandlerInfo) []autowebcache.HandlerInfo {
	out := make([]autowebcache.HandlerInfo, len(hs))
	for i, h := range hs {
		fn := h.Fn
		h.Fn = func(w http.ResponseWriter, r *http.Request) {
			id := t.begin(spanHandler)
			defer t.end(id, "")
			fn(w, r)
		}
		out[i] = h
	}
	return out
}

// tracedWriter times the woven handler's body writes into net/http.
type tracedWriter struct {
	http.ResponseWriter
	t *Tracer
}

func (w tracedWriter) Write(p []byte) (int, error) {
	id := w.t.begin(spanWrite)
	defer w.t.end(id, "")
	return w.ResponseWriter.Write(p)
}

// traceRoot wraps the woven application in the request span.
func traceRoot(t *Tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := t.begin(spanRequest)
		next.ServeHTTP(tracedWriter{w, t}, r)
		t.end(id, w.Header().Get(weave.HeaderOutcome))
	})
}

// pageRecord is one generated page as the weave offered it for
// replication: the inputs of a cache insert.
type pageRecord struct {
	key, contentType string
	body             []byte
	deps             []analysis.Query
	ttl              time.Duration
}

// recorder keeps the inputs the replays feed back to the layers.
type recorder struct {
	mu       sync.Mutex
	pages    []pageRecord
	captures []analysis.WriteCapture
}

// tracedRemote wraps the woven application's peer tier (nil on a single
// node, where it only records each generated page).
type tracedRemote struct {
	inner weave.Remote
	t     *Tracer
	rec   *recorder
}

func (r tracedRemote) Fetch(ctx context.Context, key string) (cache.Page, bool) {
	if r.inner == nil {
		return cache.Page{}, false
	}
	id := r.t.begin(spanFetch)
	defer r.t.end(id, "")
	return r.inner.Fetch(ctx, key)
}

func (r tracedRemote) Offer(key string, body []byte, contentType string, deps []analysis.Query, ttl time.Duration) {
	// body and deps are the cache's stored, immutable slices.
	r.rec.mu.Lock()
	r.rec.pages = append(r.rec.pages, pageRecord{key, contentType, body, deps, ttl})
	r.rec.mu.Unlock()
	if r.inner == nil {
		return
	}
	id := r.t.begin(spanOffer)
	defer r.t.end(id, "")
	r.inner.Offer(key, body, contentType, deps, ttl)
}

// tracedInvalidator wraps the cache's invalidation fan-out (nil on a single
// node, where it only records each write capture).
type tracedInvalidator struct {
	inner cache.RemoteInvalidator
	t     *Tracer
	rec   *recorder
}

func (v tracedInvalidator) BroadcastWrite(w analysis.WriteCapture) error {
	v.rec.mu.Lock()
	v.rec.captures = append(v.rec.captures, w)
	v.rec.mu.Unlock()
	if v.inner == nil {
		return nil
	}
	id := v.t.begin(spanBroadcast)
	defer v.t.end(id, "")
	return v.inner.BroadcastWrite(w)
}

func (v tracedInvalidator) BroadcastFlush() error {
	if v.inner == nil {
		return nil
	}
	return v.inner.BroadcastFlush()
}
