package serverutil

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
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// testHandler is the one handler both servers run in the differential
// tests: each path exercises one response shape.
func testHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintf(w, "%s %s", r.Method, r.URL.RequestURI())
	})
	mux.HandleFunc("/cl", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Header().Set("Content-Length", "5")
		io.WriteString(w, "fixed")
	})
	mux.HandleFunc("/html", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "<!DOCTYPE html><html><body>sniffed</body></html>")
	})
	mux.HandleFunc("/big", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		w.Write(bytes.Repeat([]byte("0123456789abcdef"), 1024))
	})
	mux.HandleFunc("/304", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Etag", `"v1"`)
		w.Header().Set("Content-Type", "text/plain")
		w.WriteHeader(http.StatusNotModified)
	})
	mux.HandleFunc("/204", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/echo", func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "read: "+err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintf(w, "%d:%s", r.ContentLength, b)
	})
	mux.HandleFunc("/close", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		io.WriteString(w, "bye")
	})
	mux.HandleFunc("/panic", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "partial")
		panic("handler bug")
	})
	mux.HandleFunc("/abort", func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})
	return mux
}

// quietLog silences the servers' log lines (the panic cases log a stack).
func quietLog(t testing.TB) {
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
}

// startLoop serves h with the package's loop on a loopback port.
func startLoop(t testing.TB, h http.Handler) (string, *server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(h)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.serve(ln)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.shutdownGracefully(ctx)
		<-done
	})
	return ln.Addr().String(), s
}

// startStd serves h with net/http's server, configured as the data
// listener was before the loop replaced it.
func startStd(t testing.TB, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, ErrorLog: log.New(io.Discard, "", 0)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String()
}

// reply is one response as the differential tests compare it: framing
// (Content-Length, Transfer-Encoding) and Date are dropped, the body is
// decoded.
type reply struct {
	Status int
	Header http.Header
	Body   string
}

// outcome is what a client saw on one connection: the replies in order,
// and whether the connection was still open after the last.
type outcome struct {
	Replies []reply
	Open    bool
}

// exchange writes raw to addr and reads replies, parsing each as the
// answer to the next method in methods (1xx interim replies are recorded
// and do not consume a method).
func exchange(t testing.TB, addr string, raw string, methods ...string) outcome {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	go io.WriteString(conn, raw) // a refused upload may block; the deadline ends it
	return readReplies(t, conn, methods)
}

func readReplies(t testing.TB, conn net.Conn, methods []string) outcome {
	t.Helper()
	var out outcome
	br := bufio.NewReader(conn)
	for len(methods) > 0 {
		resp, err := http.ReadResponse(br, &http.Request{Method: methods[0]})
		if err != nil {
			return out // closed: no (further) reply
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading a reply body: %v", err)
		}
		h := resp.Header.Clone()
		for _, k := range []string{"Date", "Content-Length", "Transfer-Encoding"} {
			delete(h, k)
		}
		out.Replies = append(out.Replies, reply{resp.StatusCode, h, string(body)})
		if resp.StatusCode >= 200 || resp.StatusCode == http.StatusSwitchingProtocols {
			methods = methods[1:]
		}
	}
	conn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	_, err := br.Peek(1)
	var ne net.Error
	out.Open = errors.As(err, &ne) && ne.Timeout()
	return out
}

// TestHTTP1MatchesNetHTTP sends the same byte streams to net/http's server
// and to the loop, both serving one handler, and requires the same
// replies: status, headers other than Date and framing, decoded body, and
// whether the connection stays open.
func TestHTTP1MatchesNetHTTP(t *testing.T) {
	quietLog(t)
	h := testHandler()
	loop, _ := startLoop(t, h)
	std := startStd(t, h)
	get := func(path string) string { return "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n" }
	bigHead := "GET / HTTP/1.1\r\nHost: x\r\nX-Big: " + strings.Repeat("a", http.DefaultMaxHeaderBytes+8192) + "\r\n\r\n"
	for _, tc := range []struct {
		name    string
		raw     string
		methods []string
		// differs, when set, is why net/http answers otherwise; the loop
		// must then give want.
		differs string
		want    outcome
	}{
		{name: "keep-alive", raw: get("/a?b=1")},
		{name: "pipelined", raw: get("/one") + get("/cl") + get("/two?x=%20y"), methods: []string{"GET", "GET", "GET"}},
		{name: "head", raw: "HEAD /a HTTP/1.1\r\nHost: x\r\n\r\n" + "HEAD /cl HTTP/1.1\r\nHost: x\r\n\r\n", methods: []string{"HEAD", "HEAD"}},
		{name: "not-modified", raw: get("/304")},
		{name: "no-content", raw: get("/204")},
		{name: "sniffed", raw: get("/html")},
		{name: "unlengthed-large", raw: get("/big")},
		{name: "content-length-body", raw: "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello" + get("/after"), methods: []string{"POST", "GET"}},
		{name: "repeated-content-length", raw: "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi"},
		{name: "chunked-body", raw: "POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n" + get("/after"), methods: []string{"POST", "GET"}},
		{name: "chunked-trailer", raw: "POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhi\r\n0\r\nX-Sum: 1\r\n\r\n" + get("/after"), methods: []string{"POST", "GET"}},
		{name: "unread-body", raw: "POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello" + get("/after"), methods: []string{"POST", "GET"}},
		{name: "unread-huge-body", raw: "POST /a HTTP/1.1\r\nHost: x\r\nContent-Length: 400000\r\n\r\n" + strings.Repeat("z", 400000), methods: []string{"POST"}},
		{name: "expect-continue", raw: "POST /echo HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 3\r\n\r\nabc", methods: []string{"POST"}},
		{name: "expect-continue-unread", raw: "POST /a HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 3\r\n\r\nabc", methods: []string{"POST"}},
		{name: "expect-unknown", raw: "GET /a HTTP/1.1\r\nHost: x\r\nExpect: teapot\r\n\r\n"},
		{name: "http10", raw: "GET /a HTTP/1.0\r\n\r\n"},
		{name: "http10-keep-alive", raw: "GET /a HTTP/1.0\r\nConnection: keep-alive\r\n\r\n" + "GET /b HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", methods: []string{"GET", "GET"}},
		{name: "connection-close", raw: "GET /a HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"},
		{name: "handler-close", raw: get("/close")},
		{name: "absolute-form", raw: "GET http://example.com/a?q=1 HTTP/1.1\r\nHost: x\r\n\r\n"},
		{name: "escaped-path", raw: get("/a%20b/c")},
		{name: "missing-host", raw: "GET /a HTTP/1.1\r\n\r\n"},
		{name: "two-hosts", raw: "GET /a HTTP/1.1\r\nHost: x\r\nHost: y\r\n\r\n"},
		{name: "bad-host", raw: "GET /a HTTP/1.1\r\nHost: x y\r\n\r\n"},
		{name: "bad-request-line", raw: "GET /a\r\nHost: x\r\n\r\n"},
		{name: "bad-method", raw: "G(T /a HTTP/1.1\r\nHost: x\r\n\r\n"},
		{name: "bad-version", raw: "GET /a HTTP/2.0\r\nHost: x\r\n\r\n"},
		{name: "bad-header-field", raw: "GET /a HTTP/1.1\r\nHost: x\r\nNoColon\r\n\r\n"},
		{name: "header-name-space", raw: "GET /a HTTP/1.1\r\nHost: x\r\nBad Name: v\r\n\r\n"},
		{name: "header-value-ctl", raw: "GET /a HTTP/1.1\r\nHost: x\r\nX: a\x01b\r\n\r\n"},
		{name: "bad-content-length", raw: "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 1x\r\n\r\n"},
		{name: "conflicting-content-length", raw: "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab"},
		{name: "unknown-transfer-coding", raw: "POST /echo HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: gzip\r\n\r\n"},
		{name: "oversize-head", raw: bigHead},
		{name: "panic", raw: get("/panic")},
		{name: "panic-after-pipelined", raw: get("/one") + get("/panic"), methods: []string{"GET", "GET"}},
		{name: "abort-handler", raw: get("/abort")},
		{name: "both-lengths", raw: "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
			differs: "RFC 9112 §6.3 lets a server refuse a request framed both ways; net/http drops the Content-Length, the loop refuses",
			want:    outcome{Replies: []reply{badRequestReply("")}}},
		{name: "obs-fold", raw: "GET /a HTTP/1.1\r\nHost: x\r\nX-Folded: a\r\n b\r\n\r\n",
			differs: "RFC 9112 §5.2 lets a server refuse obsolete line folding; net/http unfolds it, the loop refuses",
			want:    outcome{Replies: []reply{badRequestReply("")}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			methods := tc.methods
			if methods == nil {
				methods = []string{"GET"}
			}
			got := exchange(t, loop, tc.raw, methods...)
			want := tc.want
			if tc.differs == "" {
				want = exchange(t, std, tc.raw, methods...)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("loop:\n%+v\nwant:\n%+v", got, want)
			}
		})
	}
}

// badRequestReply is the 400 net/http's server (and the loop) sends for a
// malformed request, text being the detail after the status text. Its
// Connection: close shows as Open false (http.ReadResponse consumes it).
func badRequestReply(text string) reply {
	status := "400 Bad Request"
	if text != "" {
		status += ": " + text
	}
	return reply{Status: 400, Header: http.Header{"Content-Type": {"text/plain; charset=utf-8"}}, Body: status}
}

// TestHTTP1ExpectContinueBeforeBody sends the head of an Expect:
// 100-continue upload alone: the 100 must arrive before the client sends
// the body, and the final reply after it.
func TestHTTP1ExpectContinueBeforeBody(t *testing.T) {
	addr, _ := startLoop(t, testHandler())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	io.WriteString(conn, "POST /echo HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 3\r\n\r\n")
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil || resp.StatusCode != http.StatusContinue {
		t.Fatalf("interim reply: %v, %v", resp, err)
	}
	io.WriteString(conn, "abc")
	resp, err = http.ReadResponse(br, &http.Request{Method: "POST"})
	if err != nil {
		t.Fatal(err)
	}
	if body, _ := io.ReadAll(resp.Body); resp.StatusCode != 200 || string(body) != "3:abc" {
		t.Fatalf("final reply %d %q", resp.StatusCode, body)
	}
}

// TestHTTP1HeaderTimeout: a client that stalls mid-head, or connects and
// sends nothing, is disconnected once the header timeout passes; one that
// idles between requests is not (there is no idle timeout).
func TestHTTP1HeaderTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(testHandler())
	s.headerTimeout = 100 * time.Millisecond
	go s.serve(ln)
	defer s.shutdownGracefully(context.Background())
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		return conn
	}
	closedSoon := func(name string, conn net.Conn) {
		t.Helper()
		start := time.Now()
		if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s: read %d, %v; want the connection closed", name, n, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%s: closed after %v", name, d)
		}
	}

	stalled := dial()
	io.WriteString(stalled, "GET /a HTTP/1.1\r\nHo")
	closedSoon("stalled head", stalled)

	closedSoon("silent new connection", dial())

	idle := dial()
	get := "GET /a HTTP/1.1\r\nHost: x\r\n\r\n"
	go io.WriteString(idle, get)
	if out := readReplies(t, idle, []string{"GET"}); len(out.Replies) != 1 || out.Replies[0].Status != 200 || !out.Open {
		t.Fatalf("first request: %+v", out)
	}
	idle.SetDeadline(time.Now().Add(5 * time.Second))
	time.Sleep(300 * time.Millisecond) // three header timeouts of idling
	go io.WriteString(idle, get)
	if out := readReplies(t, idle, []string{"GET"}); len(out.Replies) != 1 || out.Replies[0].Status != 200 || !out.Open {
		t.Fatalf("request after idling: %+v", out)
	}
}

// TestHTTP1Shutdown: shutdown lets an in-flight request finish with 200,
// closes idle connections, and refuses new dials.
func TestHTTP1Shutdown(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(entered)
			<-release
		}
		io.WriteString(w, "done")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	s := newServer(h)
	served := make(chan error, 1)
	go func() { served <- s.serve(ln) }()

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	idle.SetDeadline(time.Now().Add(10 * time.Second))
	io.WriteString(idle, "GET /fast HTTP/1.1\r\nHost: x\r\n\r\n")
	idleBr := bufio.NewReader(idle)
	if resp, err := http.ReadResponse(idleBr, nil); err != nil || resp.StatusCode != 200 {
		t.Fatalf("idle connection's request: %v %v", resp, err)
	} else {
		io.ReadAll(resp.Body)
	}

	busy, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	busy.SetDeadline(time.Now().Add(10 * time.Second))
	io.WriteString(busy, "GET /slow HTTP/1.1\r\nHost: x\r\n\r\n")
	<-entered

	shut := make(chan error, 1)
	go func() { shut <- s.shutdownGracefully(context.Background()) }()

	if _, err := idleBr.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection after shutdown: %v, want EOF", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("serve returned %v", err)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("a new dial succeeded after shutdown")
	}
	select {
	case err := <-shut:
		t.Fatalf("shutdown returned %v with a request in flight", err)
	default:
	}
	close(release)
	resp, err := http.ReadResponse(bufio.NewReader(busy), nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || string(body) != "done" || !resp.Close {
		t.Fatalf("in-flight reply: %d %q close=%v", resp.StatusCode, body, resp.Close)
	}
	if err := <-shut; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestHTTP1ContextEnds: a request's context is live while the handler runs,
// done once ServeHTTP returns, and still done while the connection's next
// request runs.
func TestHTTP1ContextEnds(t *testing.T) {
	var mu sync.Mutex
	var ctxs []context.Context
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := r.Context().Err(); err != nil {
			t.Errorf("context done inside the handler: %v", err)
		}
		mu.Lock()
		for i, ctx := range ctxs {
			select {
			case <-ctx.Done():
			default:
				t.Errorf("request %d's context live again during request %d", i, len(ctxs))
			}
			if ctx.Err() == nil {
				t.Errorf("request %d's context has no error during request %d", i, len(ctxs))
			}
		}
		ctxs = append(ctxs, r.Context())
		mu.Unlock()
		io.WriteString(w, "ok")
	})
	addr, _ := startLoop(t, h)
	get := "GET / HTTP/1.1\r\nHost: x\r\n\r\n"
	if out := exchange(t, addr, get+get+get, "GET", "GET", "GET"); len(out.Replies) != 3 {
		t.Fatalf("replies: %+v", out)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, ctx := range ctxs {
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("request context not done after the request")
		}
	}
}

// FuzzHTTP1Request feeds arbitrary bytes to the loop as a connection's
// input. The loop must neither panic nor hang, and must accept or refuse
// the first request as net/http's server does, except where listedDiff
// names a deliberate difference.
func FuzzHTTP1Request(f *testing.F) {
	for _, seed := range []string{
		"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /a?b=c HTTP/1.0\r\n\r\n",
		"HEAD /x HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc",
		"POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
		"POST / HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 1\r\n\r\nz",
		"GET / HTTP/1.1\r\n\r\n",
		"GET / HTTP/9.9\r\nHost: x\r\n\r\n",
		"GET http://h/p HTTP/1.1\r\nHost: x\r\n\r\n",
		"OPTIONS * HTTP/1.1\r\nHost: x\r\n\r\n",
		"CONNECT h:443 HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET / HTTP/1.1\nHost: x\n\n",
		"GET /%zz HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: [::1]:80\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\nX: \xff\r\n\r\n",
	} {
		f.Add(seed)
	}
	quietLog(f)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, "ok")
	})
	loop, _ := startLoop(f, h)
	std := startStd(f, h)
	f.Fuzz(func(t *testing.T, raw string) {
		if len(raw) > 64<<10 {
			return
		}
		got, want := firstStatus(t, loop, raw), firstStatus(t, std, raw)
		if reason := listedDiff(raw); reason != "" {
			t.Skip(reason)
		}
		if (got >= 200 && got < 300) != (want >= 200 && want < 300) || (got == 0) != (want == 0) {
			t.Fatalf("%q: loop answered %d, net/http %d", raw, got, want)
		}
	})
}

// firstStatus sends raw, half-closes, and returns the status of the first
// final reply (0: the connection closed without one).
func firstStatus(t *testing.T, addr, raw string) int {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	io.WriteString(conn, raw)
	conn.(*net.TCPConn).CloseWrite()
	br := bufio.NewReader(conn)
	for {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("%q: %s hung", raw, addr)
			}
			return 0
		}
		if resp.StatusCode >= 200 {
			return resp.StatusCode
		}
	}
}

// listedDiff names the deliberate differences between the loop and
// net/http's server that raw may trigger.
func listedDiff(raw string) string {
	head, _, _ := strings.Cut(raw, "\r\n\r\n")
	lower := strings.ToLower(head)
	switch {
	case strings.Contains(lower, "transfer-encoding") && strings.Contains(lower, "content-length"):
		return "both framings: the loop refuses what net/http accepts (RFC 9112 §6.3)"
	case strings.Contains(head, "\n ") || strings.Contains(head, "\n\t"):
		return "obs-fold: the loop refuses what net/http unfolds (RFC 9112 §5.2)"
	case strings.HasPrefix(raw, "PRI "):
		return "HTTP/2 preface: net/http hands it to the handler, the loop has no HTTP/2"
	}
	return ""
}
