package serverutil

// The data listener's HTTP/1.1 server. A cache hit costs a key, a lookup
// and a write; net/http's server spends several times that on the request
// around it (fresh request and header maps per request, a header Clone in
// WriteHeader, a per-request context and a background-read goroutine). This
// loop keeps what a client can observe of net/http's server and drops the
// per-request machinery:
//
//   - One goroutine serves each connection. The connection owns one
//     *http.Request, url.URL, request header map and ResponseWriter, made
//     when it opens and reset for every request. The writer's header map
//     keeps its keys and value slices across requests (a reset truncates
//     each slice to length 0), so servlet.SetHeader refills them in place;
//     a header set to an empty or nil slice therefore reads as unset.
//   - A response's head and body are built in the connection's output
//     buffer and leave in one write: when the handler's Content-Length is
//     reached, or when the handler returns. The flush is skipped while the
//     next pipelined request head is already buffered, and made before the
//     loop blocks on a read.
//   - A handler that sets Content-Length is streamed as given; otherwise
//     the body is buffered and its length sent. Responses are never
//     chunked. HEAD, 1xx, 204 and 304 responses carry no body; Date is on
//     every response; Content-Type is sniffed when unset; the handler's
//     headers go out sorted, then the loop's own (Content-Type, Connection,
//     Date, Content-Length), as net/http orders them.
//   - A new connection's first request head is due within the header
//     timeout from accept, as in net/http. After that the timeout is armed
//     once a request's first byte has arrived, and only when its head is
//     not already fully buffered: it guards blocking reads, and a buffered
//     head needs none. There is no idle timeout: a keep-alive connection
//     waits for its next request without a deadline.
//   - The request's context is done once ServeHTTP returns and when the
//     server closes the connection, and stays done: it is reused for the
//     connection's next request only if nobody asked it Done or Err (a hit
//     never does). The loop does not read the socket while
//     a handler runs, so a client that hangs up mid-handler is noticed when
//     the response is written: at the handler's Write once the declared
//     Content-Length is complete (the weave counts it in SendFailures), and
//     otherwise at the flush after the handler returns, which closes the
//     connection.
//
// Request-side limits and refusals follow net/http: a head over
// http.DefaultMaxHeaderBytes gets 431, a malformed request line or header
// field 400, a missing Host on HTTP/1.1 400, an unknown transfer coding
// 501, and each closes the connection. Deliberately stricter: a request
// carrying both Transfer-Encoding and Content-Length, or a folded
// (obs-fold) header line, gets 400 (RFC 9112 §6.3 and §5.2 allow either
// answer; net/http accepts both). There is no Flusher, Hijacker, trailer
// or HTTP/2 support: the woven applications use none of them.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// headerTimeout bounds how long a started request head may take to
	// arrive (net/http's ReadHeaderTimeout on the server this replaces).
	headerTimeout = 5 * time.Second
	// maxHeadBytes is net/http's read limit for one request head.
	maxHeadBytes = http.DefaultMaxHeaderBytes + 4096
	// maxDrainBytes is how much of a request body the handler left unread
	// is discarded to keep the connection; past it, the connection closes.
	maxDrainBytes = 256 << 10
	readBufSize   = 4 << 10
	// writeBufSize holds a typical page and its head, so it leaves in one
	// write; a larger body goes out with the head in one writev.
	writeBufSize = 8 << 10
	// maxKeptBytes caps the output and body buffers a connection keeps
	// between requests after one response grew them.
	maxKeptBytes = 64 << 10
	// maxKeptHeaders caps the fields a connection's reused request and
	// response header maps keep between requests.
	maxKeptHeaders = 32
	// rstAvoidanceDelay is how long a connection refused mid-upload lingers
	// half-closed so the client reads the refusal before a reset.
	rstAvoidanceDelay = 500 * time.Millisecond
)

// server is the data listener's HTTP/1.1 server (see the file comment).
type server struct {
	handler http.Handler
	// headerTimeout is headerTimeout; tests shorten it.
	headerTimeout time.Duration

	shutdown atomic.Bool
	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
}

func newServer(h http.Handler) *server {
	return &server{handler: h, headerTimeout: headerTimeout, conns: make(map[*conn]struct{})}
}

// serve accepts connections on ln until shutdown, which makes it return
// http.ErrServerClosed, or until ln fails.
func (s *server) serve(ln net.Listener) error {
	s.mu.Lock()
	if s.shutdown.Load() {
		s.mu.Unlock()
		ln.Close()
		return http.ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	var delay time.Duration
	for {
		rwc, err := ln.Accept()
		if err != nil {
			if s.shutdown.Load() {
				return http.ErrServerClosed
			}
			// Running out of descriptors or buffers passes; back off as
			// net/http does rather than stop serving.
			if errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) ||
				errors.Is(err, syscall.ENOBUFS) || errors.Is(err, syscall.ENOMEM) ||
				errors.Is(err, syscall.ECONNABORTED) {
				delay = min(max(2*delay, 5*time.Millisecond), time.Second)
				log.Printf("http: Accept error: %v; retrying in %v", err, delay)
				time.Sleep(delay)
				continue
			}
			return err
		}
		delay = 0
		if c := s.newConn(rwc); c != nil {
			go c.serve()
		}
	}
}

// shutdownGracefully stops accepting, closes idle connections and waits
// for in-flight requests to finish, until ctx ends.
func (s *server) shutdownGracefully(ctx context.Context) error {
	s.mu.Lock()
	s.shutdown.Store(true)
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Unlock()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for !s.closeIdle() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	return nil
}

// closeIdle closes the connections waiting for a request and reports
// whether none remains.
func (s *server) closeIdle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		if c.state.CompareAndSwap(stateIdle, stateClosed) {
			c.rwc.Close()
		}
	}
	return len(s.conns) == 0
}

// Connection states, for shutdown: only an idle connection is closed under
// a client; an active one finishes its request first.
const (
	stateIdle int32 = iota
	stateActive
	stateClosed
)

// conn is one client connection and everything its requests reuse.
type conn struct {
	srv        *server
	rwc        net.Conn
	remoteAddr string
	state      atomic.Int32

	br *bufio.Reader
	// out is the output buffer; mark is where the response being written
	// starts in it, so a panicking handler's partial response is dropped
	// while earlier pipelined ones still go out. werr is the first write
	// error: the connection closes after it.
	out  []byte
	mark int
	werr error
	vec  net.Buffers

	req   *http.Request
	blank http.Request // the zero request carrying rctx, copied into req per request
	url   url.URL
	hdr   http.Header
	rctx  *requestContext
	body  requestBody
	rw    response

	// Request parsing scratch: a head line longer than the read buffer,
	// the head bytes still allowed, and one backing array for the header
	// map's value slices.
	line       []byte
	headLeft   int
	vals       []string
	badName    bool
	lastMethod string

	// Response scratch: sorted header keys, the buffered body of a
	// response without Content-Length, the cached Date line.
	sortKeys []string
	resBody  []byte
	dateSec  int64
	date     []byte
}

func (s *server) newConn(rwc net.Conn) *conn {
	c := &conn{
		srv: s,
		rwc: rwc,
		br:  bufio.NewReaderSize(rwc, readBufSize),
		out: make([]byte, 0, writeBufSize),
		hdr: make(http.Header),
	}
	if ra := rwc.RemoteAddr(); ra != nil {
		c.remoteAddr = ra.String()
	}
	c.newContext()
	c.req = new(http.Request)
	c.body.c = c
	c.rw = response{c: c, header: make(http.Header)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutdown.Load() {
		rwc.Close()
		return nil
	}
	s.conns[c] = struct{}{}
	return c
}

func (c *conn) serve() {
	defer c.close()
	defer func() {
		if v := recover(); v != nil {
			if v != http.ErrAbortHandler {
				buf := make([]byte, 64<<10)
				buf = buf[:runtime.Stack(buf, false)]
				log.Printf("http: panic serving %v: %v\n%s", c.remoteAddr, v, buf)
			}
			c.out = c.out[:c.mark]
			c.flush()
		}
	}()
	for fresh := true; c.serveOne(fresh); fresh = false {
	}
}

func (c *conn) close() {
	c.flush() // responses held back for a pipelined request that never came
	c.rctx.end()
	c.rwc.Close()
	c.srv.mu.Lock()
	delete(c.srv.conns, c)
	c.srv.mu.Unlock()
}

// serveOne reads and answers one request, the connection's first when
// fresh is set; it reports whether the connection stays open for another.
func (c *conn) serveOne(fresh bool) bool {
	armed := fresh
	if armed {
		c.rwc.SetReadDeadline(time.Now().Add(c.srv.headerTimeout))
	}
	if _, err := c.br.Peek(1); err != nil {
		return false
	}
	if !c.state.CompareAndSwap(stateIdle, stateActive) {
		return false
	}
	if !armed && !c.headBuffered() {
		armed = true
		c.rwc.SetReadDeadline(time.Now().Add(c.srv.headerTimeout))
	}
	rej, ok := c.readRequest()
	if armed {
		c.rwc.SetReadDeadline(time.Time{})
	}
	if !ok {
		c.reject(rej)
		return false
	}
	c.mark = len(c.out)
	c.rw.reset()
	if exp := first(c.hdr, "Expect"); hasToken(exp, "100-continue") {
		c.body.continueOwed = c.req.ProtoAtLeast(1, 1) && c.req.ContentLength != 0
	} else if exp != "" {
		c.rw.header["Connection"] = append(c.rw.header["Connection"], "close")
		c.rw.WriteHeader(http.StatusExpectationFailed)
		c.rw.finish()
		return false
	}
	c.srv.handler.ServeHTTP(&c.rw, c.req)
	c.rctx.end()
	keep := c.rw.finish()
	c.state.Store(stateIdle)
	return keep && !c.srv.shutdown.Load()
}

// headBuffered reports whether a whole request head is already buffered.
func (c *conn) headBuffered() bool {
	n := c.br.Buffered()
	if n == 0 {
		return false
	}
	b, _ := c.br.Peek(n)
	b = bytes.TrimLeft(b, "\r\n")
	return bytes.Contains(b, []byte("\n\r\n")) || bytes.Contains(b, []byte("\n\n"))
}

// flush writes out the output buffer.
func (c *conn) flush() {
	if len(c.out) > 0 && c.werr == nil {
		_, c.werr = c.rwc.Write(c.out)
	}
	c.out, c.mark = c.out[:0], 0
}

// write appends p to the output buffer, or sends both in one writev when
// p does not fit.
func (c *conn) write(p []byte) {
	if c.werr != nil {
		return
	}
	if len(c.out)+len(p) <= cap(c.out) {
		c.out = append(c.out, p...)
		return
	}
	c.vec = append(c.vec[:0], c.out, p)
	_, c.werr = c.vec.WriteTo(c.rwc)
	c.out, c.mark = c.out[:0], 0
}

// rejection is a request the loop refuses before any handler runs, and the
// reply net/http's server gives it.
type rejection struct {
	// code is the status; 0 closes without a reply (the client went away,
	// stalled past the header timeout, or the read failed).
	code int
	// text follows the status text in the reply ("400 Bad Request: text").
	text string
}

var badRequest = rejection{code: http.StatusBadRequest}

func (c *conn) reject(rej rejection) {
	if rej.code == 0 {
		return
	}
	status := strconv.Itoa(rej.code) + " " + http.StatusText(rej.code)
	if rej.text != "" {
		status += ": " + rej.text
	}
	body := status
	if rej.code == http.StatusNotImplemented {
		body = "Unsupported transfer encoding"
	}
	c.out = append(c.out, "HTTP/1.1 "+status+"\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"+body...)
	c.flush()
	if rej.code == http.StatusRequestHeaderFieldsTooLarge {
		c.closeWriteAndWait()
	}
}

// closeWriteAndWait half-closes the connection and lingers, so a client
// still uploading reads the reply before the close resets the connection.
func (c *conn) closeWriteAndWait() {
	if cw, ok := c.rwc.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	time.Sleep(rstAvoidanceDelay)
}

var errTooLarge = errors.New("request head too large")

// readLine reads one head line without its line ending. The slice is
// valid until the next read. A final line cut short by EOF is returned as
// a line, as net/http's reader does; one cut short by a timeout or a
// failed read is an error (the connection closes without a reply).
func (c *conn) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	whole := line
	if err == bufio.ErrBufferFull {
		c.line = append(c.line[:0], line...)
		for err == bufio.ErrBufferFull && len(c.line) <= c.headLeft {
			line, err = c.br.ReadSlice('\n')
			c.line = append(c.line, line...)
		}
		whole = c.line
		if cap(c.line) > maxKeptBytes {
			c.line = nil
		}
	}
	if c.headLeft -= len(whole); c.headLeft < 0 {
		return nil, errTooLarge
	}
	// Like net/http's reader, only the last read decides: data then EOF
	// is a line, a read that brings nothing is the error.
	if len(line) == 0 || err != nil && err != io.EOF {
		return nil, err
	}
	line = whole
	if n := len(line); line[n-1] == '\n' {
		line = line[:n-1]
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
	}
	return line, nil
}

// readFailure maps a head read error to its reply: 431 for an oversize
// head, 400 for a head cut short after its request line, and a silent
// close for anything else (the client went away or stalled).
func readFailure(err error, started bool) rejection {
	switch {
	case err == errTooLarge:
		return rejection{code: http.StatusRequestHeaderFieldsTooLarge}
	case started && err == io.EOF:
		return badRequest
	}
	return rejection{}
}

// readRequest parses the next request head into c.req, refusing what
// net/http's server refuses, in the order it checks.
func (c *conn) readRequest() (rejection, bool) {
	c.headLeft = maxHeadBytes
	if c.lastMethod == http.MethodPost {
		// RFC 7230 §3 tolerance for clients that end a POST body with a
		// stray line break.
		peek, _ := c.br.Peek(4)
		n := 0
		for n < len(peek) && (peek[n] == '\r' || peek[n] == '\n') {
			n++
		}
		c.br.Discard(n)
	}
	line, err := c.readLine()
	if err != nil {
		return readFailure(err, false), false
	}
	method, rest, ok1 := strings.Cut(string(line), " ")
	uri, proto, ok2 := strings.Cut(rest, " ")
	if !ok1 || !ok2 || !validToken(method) {
		return badRequest, false
	}
	major, minor, ok := http.ParseHTTPVersion(proto)
	if !ok || !c.parseURI(method, uri) {
		return badRequest, false
	}
	c.lastMethod = method

	if len(c.hdr) > maxKeptHeaders {
		c.hdr, c.vals = make(http.Header), nil // a flood of fields is not kept
	}
	clear(c.hdr)
	c.vals = c.vals[:0]
	c.badName = false
	for {
		line, err := c.readLine()
		if err != nil {
			return readFailure(err, true), false
		}
		if len(line) == 0 {
			break
		}
		if line[0] == ' ' || line[0] == '\t' {
			return badRequest, false // obs-fold, or a first line that is no field
		}
		line = bytes.TrimRight(line, " \t")
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return badRequest, false
		}
		key, ok := c.headerKey(k)
		if !ok {
			return badRequest, false
		}
		v = bytes.TrimLeft(v, " \t")
		for _, b := range v {
			if b < ' ' && b != '\t' || b == 0x7f {
				return badRequest, false
			}
		}
		if key != "" {
			c.addHeader(key, v)
		}
	}

	if len(c.hdr["Host"]) > 1 {
		return badRequest, false
	}
	chunked := false
	if te, ok := c.hdr["Transfer-Encoding"]; ok {
		delete(c.hdr, "Transfer-Encoding")
		// net/http reads Transfer-Encoding from HTTP/1.1 on (and from the
		// unversioned "HTTP/0.0", which it treats as 1.1).
		if major > 1 || major == 1 && minor >= 1 || major == 0 && minor == 0 {
			if len(te) != 1 || !strings.EqualFold(te[0], "chunked") {
				return rejection{code: http.StatusNotImplemented}, false
			}
			chunked = true
		}
	}
	var length int64
	if cls := c.hdr["Content-Length"]; len(cls) > 0 {
		if chunked {
			return badRequest, false // both framings: refused (RFC 9112 §6.3)
		}
		first := strings.Trim(cls[0], " \t")
		for _, cl := range cls[1:] {
			if strings.Trim(cl, " \t") != first {
				return badRequest, false
			}
		}
		n, err := strconv.ParseUint(first, 10, 63)
		if err != nil {
			return badRequest, false
		}
		cls[0] = first
		c.hdr["Content-Length"] = cls[:1]
		length = int64(n)
	}
	if major != 1 {
		return rejection{code: http.StatusHTTPVersionNotSupported, text: "unsupported protocol version"}, false
	}
	hosts, haveHost := c.hdr["Host"]
	if minor >= 1 && !haveHost && method != http.MethodConnect {
		return rejection{code: http.StatusBadRequest, text: "missing required Host header"}, false
	}
	if len(hosts) == 1 && !validHost(hosts[0]) {
		return rejection{code: http.StatusBadRequest, text: "malformed Host header"}, false
	}
	if c.badName {
		return rejection{code: http.StatusBadRequest, text: "invalid header name"}, false
	}
	delete(c.hdr, "Host")

	if !c.rctx.reset() {
		c.newContext()
	}
	r := c.req
	*r = c.blank
	r.Method = method
	r.URL = &c.url
	r.Proto, r.ProtoMajor, r.ProtoMinor = proto, major, minor
	r.Header = c.hdr
	r.RequestURI = uri
	r.RemoteAddr = c.remoteAddr
	r.Host = c.url.Host
	if r.Host == "" && len(hosts) == 1 {
		r.Host = hosts[0]
	}
	conn := c.hdr["Connection"]
	r.Close = valuesHaveToken(conn, "close") || minor == 0 && !valuesHaveToken(conn, "keep-alive")
	c.body.reset(length, chunked)
	switch {
	case chunked:
		r.ContentLength, r.TransferEncoding, r.Body = -1, chunkedCoding, &c.body
	case length > 0:
		r.ContentLength, r.Body = length, &c.body
	default:
		r.Body = http.NoBody
	}
	return rejection{}, true
}

var chunkedCoding = []string{"chunked"}

// parseURI sets c.url from the request target as url.ParseRequestURI
// would. A plain origin-form target (a path needing no unescaping, any
// query) is split in place; anything else goes through the url package.
func (c *conn) parseURI(method, uri string) bool {
	c.url = url.URL{}
	if plainTarget(uri) {
		path, query, hasQuery := strings.Cut(uri, "?")
		c.url.Path, c.url.RawQuery = path, query
		c.url.ForceQuery = hasQuery && query == ""
		return true
	}
	raw := uri
	authority := method == http.MethodConnect && !strings.HasPrefix(uri, "/")
	if authority {
		raw = "http://" + uri
	}
	u, err := url.ParseRequestURI(raw)
	if err != nil {
		return false
	}
	if authority {
		u.Scheme = ""
	}
	c.url = *u
	return true
}

// plainTarget reports whether uri is "/path" or "/path?query" with no
// control byte, and a path of bytes url.URL.EscapedPath leaves as they are
// (so Path is the target's path and RawPath stays empty).
func plainTarget(uri string) bool {
	if uri == "" || uri[0] != '/' {
		return false
	}
	inPath := true
	for i := 0; i < len(uri); i++ {
		b := uri[i]
		if b < ' ' || b == 0x7f {
			return false
		}
		if b == '?' {
			inPath = false
		} else if inPath && !pathByte[b] {
			return false
		}
	}
	return true
}

// headerKey validates a header name and returns its canonical form. A
// name holding a space is flagged (net/http refuses it after its framing
// checks) and returned empty.
func (c *conn) headerKey(k []byte) (string, bool) {
	if len(k) == 0 {
		return "", false
	}
	space := false
	for _, b := range k {
		if b == ' ' {
			space = true
		} else if !tokenByte[b] {
			return "", false
		}
	}
	if space {
		c.badName = true
		return "", true
	}
	return http.CanonicalHeaderKey(string(k)), true
}

// addHeader adds a header line's value. A name's first value takes its
// one-element slice from c.vals, so the map's value slices cost no
// allocation of their own.
func (c *conn) addHeader(key string, v []byte) {
	val := string(v)
	if vs, ok := c.hdr[key]; ok {
		c.hdr[key] = append(vs, val)
		return
	}
	c.vals = append(c.vals, val)
	n := len(c.vals)
	c.hdr[key] = c.vals[n-1 : n : n]
}

// newContext gives the connection a new request context, and the blank
// request that carries it.
func (c *conn) newContext() {
	c.rctx = new(requestContext)
	c.blank = *(&http.Request{}).WithContext(c.rctx)
}

// requestContext is a request's context: done once ServeHTTP returns and
// when the connection closes. A connection reuses it for its next request
// while nobody has asked it Done or Err; one that was asked may be held
// past its request, so it stays done and the next request gets a new one.
// (One held unasked and first asked once the next request has begun reads
// that request's state; the woven handlers keep no context past their
// return.) Its Done channel is made only when asked for, so a request
// nobody waits on (a hit) costs no channel and no context.
type requestContext struct {
	mu    sync.Mutex
	done  chan struct{}
	err   error
	asked bool
}

func (x *requestContext) Deadline() (time.Time, bool) { return time.Time{}, false }
func (x *requestContext) Value(any) any               { return nil }

func (x *requestContext) Done() <-chan struct{} {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.asked = true
	if x.done == nil {
		x.done = make(chan struct{})
		if x.err != nil {
			close(x.done)
		}
	}
	return x.done
}

func (x *requestContext) Err() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.asked = true
	return x.err
}

// reset makes x live again for the connection's next request, unless it
// was asked Done or Err; it reports whether it did.
func (x *requestContext) reset() bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.asked {
		return false
	}
	x.err = nil
	return true
}

func (x *requestContext) end() {
	x.mu.Lock()
	if x.err == nil {
		x.err = context.Canceled
		if x.done != nil {
			close(x.done)
		}
	}
	x.mu.Unlock()
}

// requestBody reads a request body off the connection: a Content-Length
// body or a chunked one, answering Expect: 100-continue at the first read.
type requestBody struct {
	c            *conn
	left         int64     // bytes left of a Content-Length body
	chunks       io.Reader // the chunk decoder of a chunked body
	continueOwed bool
	sawEOF       bool
	closed       bool
	err          error
}

func (b *requestBody) reset(length int64, chunked bool) {
	*b = requestBody{c: b.c, left: length}
	if chunked {
		b.chunks = httputil.NewChunkedReader(b.c.br)
	}
}

func (b *requestBody) Read(p []byte) (int, error) {
	if b.closed {
		return 0, http.ErrBodyReadAfterClose
	}
	return b.read(p)
}

func (b *requestBody) Close() error {
	b.closed = true
	return nil
}

func (b *requestBody) read(p []byte) (n int, err error) {
	if b.err != nil {
		return 0, b.err
	}
	if b.sawEOF {
		return 0, io.EOF
	}
	c := b.c
	if b.continueOwed {
		b.continueOwed = false
		c.out = append(c.out, "HTTP/1.1 100 Continue\r\n\r\n"...)
		c.flush()
	} else if c.br.Buffered() == 0 {
		c.flush() // about to block: pipelined responses go out first
	}
	if c.werr != nil {
		b.err = c.werr
		return 0, b.err
	}
	if b.chunks != nil {
		n, err = b.chunks.Read(p)
		if err == io.EOF {
			err = c.readTrailer()
			if err == nil {
				b.sawEOF, err = true, io.EOF
			}
		}
	} else {
		if int64(len(p)) > b.left {
			p = p[:b.left]
		}
		n, err = c.br.Read(p)
		b.left -= int64(n)
		switch {
		case b.left == 0:
			b.sawEOF, err = true, io.EOF
		case err == io.EOF:
			err = io.ErrUnexpectedEOF
		}
	}
	if err != nil && err != io.EOF {
		b.err = err
	}
	return n, err
}

// drain discards what the handler left unread of the body, up to
// maxDrainBytes; it reports whether the connection can carry another
// request, and whether the body was too big to drain.
func (b *requestBody) drain() (ok, tooBig bool) {
	if b.sawEOF {
		return true, false
	}
	if b.chunks == nil && b.left >= maxDrainBytes {
		return false, true
	}
	n, err := io.CopyN(io.Discard, readerFunc(b.read), maxDrainBytes+1)
	switch {
	case err == io.EOF:
		return true, false
	case n > maxDrainBytes:
		return false, true
	}
	return false, false
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// readTrailer consumes a chunked body's trailer section, which the
// handlers here never read.
func (c *conn) readTrailer() error {
	c.headLeft = maxHeadBytes
	for {
		line, err := c.readLine()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		if len(line) == 0 {
			return nil
		}
	}
}

// response is a connection's http.ResponseWriter, reset per request.
type response struct {
	c      *conn
	header http.Header

	wroteHeader bool
	status      int
	isHead      bool
	bodyAllowed bool
	// clen is the handler's Content-Length, -1 when it set none: then the
	// body is buffered (buffered) and its length sent.
	clen       int64
	buffered   bool
	written    int64
	headDone   bool
	closeAfter bool
	tooBig     bool
	// The loop's own header fields, decided at WriteHeader and written
	// when the head completes.
	sniff      bool
	connection string
	addDate    bool
}

func (w *response) reset() {
	if len(w.header) > maxKeptHeaders {
		clear(w.header)
	} else {
		for k, vs := range w.header {
			w.header[k] = vs[:0]
		}
	}
	*w = response{c: w.c, header: w.header, clen: -1}
}

func (w *response) Header() http.Header { return w.header }

func (w *response) WriteHeader(code int) {
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	if w.wroteHeader {
		return
	}
	c, r := w.c, w.c.req
	if code < 200 && code != http.StatusSwitchingProtocols {
		// An informational response goes out at once; the final one
		// follows.
		c.out = appendStatusLine(c.out, r.ProtoAtLeast(1, 1), code)
		c.out = w.appendHeaders(c.out, nil)
		c.out = append(c.out, "\r\n"...)
		c.flush()
		return
	}
	w.wroteHeader, w.status = true, code
	w.isHead = r.Method == http.MethodHead
	w.bodyAllowed = code != http.StatusNoContent && code != http.StatusNotModified && code >= 200

	skip := make([]string, 1, 4)
	skip[0] = "Transfer-Encoding" // never chunked: the length frames every body
	if cl := first(w.header, "Content-Length"); cl != "" {
		if n, err := strconv.ParseInt(cl, 10, 64); err == nil && n >= 0 && w.bodyAllowed {
			w.clen = n
		} else {
			if err != nil || n < 0 {
				log.Printf("http: invalid Content-Length of %q", cl)
			}
			skip = append(skip, "Content-Length")
		}
	}
	w.buffered = w.clen < 0
	if code == http.StatusNotModified {
		skip = append(skip, "Content-Type")
	}

	wants10KeepAlive := r.ProtoMajor == 1 && r.ProtoMinor == 0 && valuesHaveToken(r.Header["Connection"], "keep-alive")
	handlerConn := first(w.header, "Connection")
	switch {
	case wants10KeepAlive:
		// The length always goes out, so HTTP/1.0 keep-alive holds.
	case !r.ProtoAtLeast(1, 1) || r.Close:
		w.closeAfter = true
	}
	if handlerConn == "close" || c.srv.shutdown.Load() || c.body.continueOwed {
		// An unanswered 100-continue leaves the client's body unsent or
		// half sent: the connection cannot carry another request.
		w.closeAfter = true
	}
	if r.ContentLength != 0 && !w.closeAfter {
		ok, tooBig := c.body.drain()
		w.closeAfter, w.tooBig = !ok, tooBig
	}
	switch {
	case w.closeAfter && code != http.StatusSwitchingProtocols:
		skip = append(skip, "Connection")
		if r.ProtoAtLeast(1, 1) {
			w.connection = "close"
		}
	case wants10KeepAlive && handlerConn == "":
		w.connection = "keep-alive"
	}
	w.sniff = w.bodyAllowed && first(w.header, "Content-Type") == "" && first(w.header, "Content-Encoding") == ""
	w.addDate = first(w.header, "Date") == ""

	c.out = appendStatusLine(c.out, r.ProtoAtLeast(1, 1), code)
	c.out = w.appendHeaders(c.out, skip)
}

// appendHeaders appends the handler's header fields, sorted by name, less
// those in skip, with values sanitised as net/http's Header.Write does.
func (w *response) appendHeaders(b []byte, skip []string) []byte {
	c := w.c
	keys := c.sortKeys[:0]
	for k, vs := range w.header {
		if len(vs) > 0 && validToken(k) && !slices.Contains(skip, k) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		for _, v := range w.header[k] {
			b = append(b, k...)
			b = append(b, ": "...)
			v = strings.Trim(v, " \t\r\n")
			for i := 0; i < len(v); i++ {
				if ch := v[i]; ch == '\r' || ch == '\n' {
					b = append(b, ' ')
				} else {
					b = append(b, ch)
				}
			}
			b = append(b, "\r\n"...)
		}
	}
	c.sortKeys = keys[:0]
	return b
}

// completeHead appends the loop's own header fields and ends the head; p
// is the start of the body, for sniffing.
func (w *response) completeHead(p []byte) {
	c := w.c
	w.headDone = true
	if w.sniff && len(p) > 0 {
		c.out = append(c.out, "Content-Type: "...)
		c.out = append(c.out, http.DetectContentType(p)...)
		c.out = append(c.out, "\r\n"...)
	}
	if w.connection != "" {
		c.out = append(c.out, "Connection: "...)
		c.out = append(c.out, w.connection...)
		c.out = append(c.out, "\r\n"...)
	}
	if w.addDate {
		now := time.Now()
		if sec := now.Unix(); sec != c.dateSec || c.date == nil {
			c.dateSec, c.date = sec, now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
		}
		c.out = append(c.out, "Date: "...)
		c.out = append(c.out, c.date...)
		c.out = append(c.out, "\r\n"...)
	}
	if w.buffered && w.bodyAllowed && (!w.isHead || w.written > 0) {
		c.out = append(c.out, "Content-Length: "...)
		c.out = strconv.AppendInt(c.out, w.written, 10)
		c.out = append(c.out, "\r\n"...)
	}
	c.out = append(c.out, "\r\n"...)
}

func (w *response) Write(p []byte) (int, error) {
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if !w.bodyAllowed {
		return 0, http.ErrBodyNotAllowed
	}
	c := w.c
	if w.clen >= 0 && w.written+int64(len(p)) > w.clen {
		return 0, http.ErrContentLength
	}
	w.written += int64(len(p))
	if w.buffered {
		c.resBody = append(c.resBody, p...)
		return len(p), nil
	}
	if !w.headDone {
		w.completeHead(p)
	}
	if !w.isHead {
		c.write(p)
	}
	if w.written == w.clen && !c.headBuffered() {
		// The declared body is complete: send it now, so a client that
		// hung up fails this Write rather than the connection's next one.
		c.flush()
	}
	return len(p), c.werr
}

// finish completes the response after the handler returned and reports
// whether the connection can carry another request.
func (w *response) finish() bool {
	c := w.c
	if !w.wroteHeader {
		w.WriteHeader(http.StatusOK)
	}
	if !w.headDone {
		w.completeHead(c.resBody)
	}
	if w.buffered && w.bodyAllowed && !w.isHead {
		c.write(c.resBody)
	}
	if w.clen >= 0 && w.written < w.clen && !w.isHead {
		w.closeAfter = true // short body: the framing is broken
	}
	c.resBody = c.resBody[:0]
	if cap(c.resBody) > maxKeptBytes {
		c.resBody = nil
	}
	if w.closeAfter || c.werr != nil || !c.headBuffered() {
		c.flush()
	}
	if cap(c.out) > maxKeptBytes {
		c.out = make([]byte, 0, writeBufSize)
	}
	if w.tooBig {
		c.closeWriteAndWait()
	}
	return !w.closeAfter && c.werr == nil
}

func appendStatusLine(b []byte, is11 bool, code int) []byte {
	if is11 {
		b = append(b, "HTTP/1.1 "...)
	} else {
		b = append(b, "HTTP/1.0 "...)
	}
	if text := http.StatusText(code); text != "" {
		b = strconv.AppendInt(b, int64(code), 10)
		b = append(b, ' ')
		b = append(b, text...)
		return append(b, "\r\n"...)
	}
	return fmt.Appendf(b, "%03d status code %d\r\n", code, code)
}

func first(h http.Header, key string) string {
	if vs := h[key]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// hasToken reports whether token is a comma- or space-delimited element of
// v, case-insensitively (net/http's rule for Expect and Connection).
func hasToken(v, token string) bool {
	if len(token) > len(v) || token == "" {
		return false
	}
	if v == token {
		return true
	}
	for sp := 0; sp <= len(v)-len(token); sp++ {
		if b := v[sp]; b != token[0] && b|0x20 != token[0] {
			continue
		}
		if sp > 0 && !isTokenBoundary(v[sp-1]) {
			continue
		}
		if end := sp + len(token); end != len(v) && !isTokenBoundary(v[end]) {
			continue
		}
		if strings.EqualFold(v[sp:sp+len(token)], token) {
			return true
		}
	}
	return false
}

func isTokenBoundary(b byte) bool { return b == ' ' || b == ',' || b == '\t' }

// valuesHaveToken reports whether any comma-separated element of the
// values equals token, case-insensitively.
func valuesHaveToken(values []string, token string) bool {
	for _, v := range values {
		for v != "" {
			var elem string
			elem, v, _ = strings.Cut(v, ",")
			if strings.EqualFold(strings.Trim(elem, " \t"), token) {
				return true
			}
		}
	}
	return false
}

func validToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !tokenByte[s[i]] {
			return false
		}
	}
	return true
}

func validHost(h string) bool {
	for i := 0; i < len(h); i++ {
		if !hostByte[h[i]] {
			return false
		}
	}
	return true
}

const alnum = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

var (
	// tokenByte: RFC 9110 tchar, the bytes of a method or field name.
	tokenByte = byteSet(alnum + "!#$%&'*+-.^_`|~")
	// hostByte: the bytes net/http accepts in a Host header.
	hostByte = byteSet(alnum + "!$%&'()*+,-.:;=[]_~")
	// pathByte: the bytes url.URL leaves unescaped in a path.
	pathByte = byteSet(alnum + "-_.~$&+,/:;=@")
)

func byteSet(s string) (set [256]bool) {
	for i := 0; i < len(s); i++ {
		set[s[i]] = true
	}
	return set
}
