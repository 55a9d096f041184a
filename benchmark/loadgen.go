package awcbench

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"autowebcache/internal/weave"
)

// hitOutcomes are the read outcomes (the X-Autowebcache response header)
// answered without running the handler on the node the client asked.
var hitOutcomes = map[string]bool{
	string(weave.OutcomeHit):         true,
	string(weave.OutcomeSemanticHit): true,
	string(weave.OutcomeNotModified): true,
	string(weave.OutcomeCoalesced):   true,
	string(weave.OutcomeRemoteHit):   true,
}

// Sample is one verified response.
type Sample struct {
	Nanos   int64
	Write   bool
	Outcome string
	// Bytes is the response body as sent: after gzip, zero for a 304.
	Bytes int
}

// Load is the result of one generator phase.
type Load struct {
	Samples   []Sample
	Attempted int
	Failed    int
	// Errors holds the first few failures, for the report.
	Errors []string
	Wall   time.Duration
	// GenCPU is the generator process's own CPU time over the phase, so a
	// generator-bound run is visible.
	GenCPU time.Duration
	// GzipPaths are some paths that were answered gzip-encoded.
	GzipPaths []string
}

func (l *Load) fail(format string, args ...any) {
	l.Failed++
	l.addError(fmt.Sprintf(format, args...))
}

func (l *Load) addError(msg string) {
	if len(l.Errors) < 5 {
		l.Errors = append(l.Errors, msg)
	}
}

// merge folds another phase or check into l.
func (l *Load) merge(o *Load) {
	l.Samples = append(l.Samples, o.Samples...)
	l.Attempted += o.Attempted
	l.Failed += o.Failed
	for _, e := range o.Errors {
		l.addError(e)
	}
	l.GzipPaths = append(l.GzipPaths, o.GzipPaths...)
}

// Limit ends a generator phase after a total request count, a duration, or
// whichever comes first when both are set. In-flight requests always
// complete: no request is cut off at the end of a phase.
type Limit struct {
	Requests int
	Duration time.Duration
}

// response is what one GET returned.
type response struct {
	status   int
	outcome  string
	etag     string
	encoding string
	n        int
	body     []byte // only when kept
}

// requestTimeout bounds one request, so a hung server fails the run instead
// of hanging it.
const requestTimeout = 30 * time.Second

// wire is a minimal HTTP/1.1 client: one persistent connection per node,
// requests written by hand, responses parsed by net/http. It replaces
// http.Transport in the generator because the transport's per-connection
// reader and writer goroutines cost ~100 us of generator CPU per request on
// the 2-core box — as much as the server spends on a hit — and their
// hand-offs add scheduling noise to every latency sample.
type wire struct {
	conns map[string]*wireConn
}

type wireConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func newWire() *wire { return &wire{conns: make(map[string]*wireConn)} }

func (w *wire) close() {
	for addr, k := range w.conns {
		k.c.Close()
		delete(w.conns, addr)
	}
}

// getRequest tells http.ReadResponse which method the response answers.
var getRequest = &http.Request{Method: http.MethodGet}

// get issues one GET for path on the node at addr. Nothing negotiates
// compression behind the caller's back, so the body is exactly what the
// server sent. A connection that failed is dropped and redialled by the
// next call.
func (w *wire) get(ctx context.Context, addr, path string, acceptGzip bool, ifNoneMatch string, keep bool) (_ response, err error) {
	k := w.conns[addr]
	if k == nil {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return response{}, err
		}
		k = &wireConn{c: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}
		w.conns[addr] = k
	}
	defer func() {
		if err != nil {
			k.c.Close()
			delete(w.conns, addr)
		}
	}()
	if err := k.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return response{}, err
	}
	k.bw.WriteString("GET ")
	k.bw.WriteString(path)
	k.bw.WriteString(" HTTP/1.1\r\nHost: ")
	k.bw.WriteString(addr)
	if acceptGzip {
		k.bw.WriteString("\r\nAccept-Encoding: gzip")
	}
	if ifNoneMatch != "" {
		k.bw.WriteString("\r\nIf-None-Match: ")
		k.bw.WriteString(ifNoneMatch)
	}
	k.bw.WriteString("\r\n\r\n")
	if err := k.bw.Flush(); err != nil {
		return response{}, err
	}
	resp, err := http.ReadResponse(k.br, getRequest)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	r := response{
		status:   resp.StatusCode,
		outcome:  resp.Header.Get(weave.HeaderOutcome),
		etag:     resp.Header.Get("Etag"),
		encoding: resp.Header.Get("Content-Encoding"),
	}
	if keep {
		r.body, err = io.ReadAll(resp.Body)
		r.n = len(r.body)
	} else {
		var n int64
		n, err = io.Copy(io.Discard, resp.Body)
		r.n = int(n)
	}
	if err == nil && resp.Close {
		err = errors.New("server closed the keep-alive connection")
	}
	return r, err
}

// client is one closed-loop emulated browser: its own keep-alive connection
// per node, its own request stream and its own validator memory.
type client struct {
	id     int
	wire   *wire
	stream *Stream
	etags  map[string]string
	sent   int
}

// Generator drives a deployment with a fixed set of closed-loop clients
// and zero think time. Clients persist across phases, so the measured
// phase continues the warm-up's streams on the warm-up's connections.
type Generator struct {
	targets []string
	clients []*client
}

// NewGenerator builds n clients for the workload and seed.
func NewGenerator(w *Workload, seed int64, targets []string, n int) *Generator {
	g := &Generator{targets: targets}
	for c := 0; c < n; c++ {
		g.clients = append(g.clients, &client{
			id: c, wire: newWire(), stream: NewStream(w, seed, c), etags: make(map[string]string),
		})
	}
	return g
}

// Close drops the clients' connections.
func (g *Generator) Close() {
	for _, c := range g.clients {
		c.wire.close()
	}
}

// Run drives the deployment until the limit is reached and returns every
// client's verified samples.
func (g *Generator) Run(ctx context.Context, limit Limit) *Load {
	var deadline time.Time
	if limit.Duration > 0 {
		deadline = time.Now().Add(limit.Duration)
	}
	var issued atomic.Int64
	parts := make([]*Load, len(g.clients))
	cpu0 := selfCPU()
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range g.clients {
		part := &Load{}
		parts[i] = part
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				if limit.Requests > 0 && issued.Add(1) > int64(limit.Requests) {
					return
				}
				c.do(ctx, g.targets, part)
			}
		}()
	}
	wg.Wait()
	total := &Load{Wall: time.Since(start), GenCPU: selfCPU() - cpu0}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// do issues the client's next request and verifies the answer.
func (c *client) do(ctx context.Context, targets []string, out *Load) {
	r := c.stream.Next()
	// Round-robin across the nodes, offset per client, so every node sees
	// every interaction.
	target := targets[(c.id+c.sent)%len(targets)]
	c.sent++
	var inm string
	if r.Conditional {
		inm = c.etags[r.Path]
	}
	out.Attempted++
	t0 := time.Now()
	resp, err := c.wire.get(ctx, target, r.Path, r.Gzip, inm, false)
	d := time.Since(t0)
	if err != nil {
		if ctx.Err() == nil {
			out.fail("%s: %v", r.Path, err)
		}
		return
	}
	if msg := verify(r, inm != "", resp); msg != "" {
		out.fail("%s: %s", r.Path, msg)
		return
	}
	if resp.etag != "" {
		c.etags[r.Path] = resp.etag
	}
	if resp.encoding == "gzip" && len(out.GzipPaths) < 16 {
		out.GzipPaths = append(out.GzipPaths, r.Path)
	}
	out.Samples = append(out.Samples, Sample{Nanos: int64(d), Write: r.Write, Outcome: resp.outcome, Bytes: resp.n})
}

// verify checks one response against what the request allows; it returns
// "" for a correct answer.
func verify(r Request, conditional bool, resp response) string {
	switch resp.status {
	case http.StatusOK:
	case http.StatusNotModified:
		if !conditional {
			return "304 to an unconditional request"
		}
		if resp.n != 0 {
			return fmt.Sprintf("304 with %d body bytes", resp.n)
		}
	default:
		return fmt.Sprintf("status %d", resp.status)
	}
	if resp.encoding != "" && !(resp.encoding == "gzip" && r.Gzip) {
		return fmt.Sprintf("Content-Encoding %q not offered", resp.encoding)
	}
	switch {
	case r.Write && resp.outcome == string(weave.OutcomeWrite):
	case !r.Write && (resp.outcome == string(weave.OutcomeMiss) || hitOutcomes[resp.outcome]):
	default:
		return fmt.Sprintf("outcome %q", resp.outcome)
	}
	if (resp.outcome == string(weave.OutcomeNotModified)) != (resp.status == http.StatusNotModified) {
		return fmt.Sprintf("outcome %q with status %d", resp.outcome, resp.status)
	}
	return ""
}

// selfCPU is the calling process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sentinelBid is a bid no generated request can place (the mixes bid at
// most 200), so finding it in a page proves the page postdates the write.
const sentinelBid = 987654

// CheckReadYourWrite stores a sentinel bid through the first node and
// requires every node's item and bid-history pages to show it. The pages
// are fetched on every node first, so before the write they are cached
// wherever the deployment caches them and a missed invalidation would
// surface as a stale hit.
func CheckReadYourWrite(ctx context.Context, targets []string, seed int64) *Load {
	out := &Load{}
	wire := newWire()
	defer wire.close()
	item := 1 + (seed%500+500)%500
	pages := []string{fmt.Sprintf("/viewItem?itemId=%d", item), fmt.Sprintf("/viewBids?itemId=%d", item)}
	fetch := func(target, path string) (response, bool) {
		out.Attempted++
		resp, err := wire.get(ctx, target, path, false, "", true)
		if err != nil || resp.status != http.StatusOK {
			out.fail("check %s%s: status %d, %v", target, path, resp.status, err)
			return resp, false
		}
		return resp, true
	}
	for _, t := range targets {
		for _, p := range pages {
			fetch(t, p)
		}
	}
	fetch(targets[0], fmt.Sprintf("/storeBid?userId=1&itemId=%d&qty=1&bid=%d", item, sentinelBid))
	needle := []byte(fmt.Sprint(sentinelBid))
	for _, t := range targets {
		for _, p := range pages {
			if resp, ok := fetch(t, p); ok && !bytes.Contains(resp.body, needle) {
				out.fail("check %s%s: %s response predates the write", t, p, resp.outcome)
			}
		}
	}
	return out
}

// CheckGzip fetches each path identity-encoded and gzip-encoded and
// requires the gzip body to decompress to the identity body. It runs after
// the load has stopped, so no write can land between the two fetches.
func CheckGzip(ctx context.Context, target string, paths []string) *Load {
	out := &Load{}
	wire := newWire()
	defer wire.close()
	for _, p := range paths {
		out.Attempted++
		plain, err := wire.get(ctx, target, p, false, "", true)
		if err != nil || plain.status != http.StatusOK || plain.encoding != "" {
			out.fail("check %s: identity fetch: status %d, encoding %q, %v", p, plain.status, plain.encoding, err)
			continue
		}
		zipped, err := wire.get(ctx, target, p, true, "", true)
		if err != nil || zipped.status != http.StatusOK || zipped.encoding != "gzip" {
			out.fail("check %s: gzip fetch: status %d, encoding %q, %v", p, zipped.status, zipped.encoding, err)
			continue
		}
		zr, err := gzip.NewReader(bytes.NewReader(zipped.body))
		if err != nil {
			out.fail("check %s: %v", p, err)
			continue
		}
		unzipped, err := io.ReadAll(zr)
		if err != nil || !bytes.Equal(unzipped, plain.body) {
			out.fail("check %s: gzip body does not decompress to the identity body (%v)", p, err)
		}
	}
	return out
}
