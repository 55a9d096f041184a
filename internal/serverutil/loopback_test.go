package serverutil

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/servlet"
	"autowebcache/internal/weave"
)

// loopbackHit is a raw-socket keep-alive client of the loop in front of a
// one-handler Woven with a gzip + ETag cache: each call sends one
// GET /viewItem?itemId=7 accepting gzip and reads the whole reply. The
// reply's length is learned on the first (miss) request, so the client
// itself allocates nothing per request.
type loopbackHit struct {
	conn net.Conn
	req  []byte
	buf  []byte
	n    int
}

func newLoopbackHit(t testing.TB) *loopbackHit {
	t.Helper()
	eng, err := analysis.NewEngine(analysis.StrategyWhereMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: eng, Gzip: true, ETags: true})
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte("<tr><td>item 7</td><td>9901</td><td>available</td></tr>\n"), 64)
	view := func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "text/html; charset=utf-8")
		rw.Write(page)
	}
	w, err := weave.New([]servlet.HandlerInfo{{Name: "ViewItem", Path: "/viewItem", Fn: view}}, c, weave.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := startLoop(t, w)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	l := &loopbackHit{
		conn: conn,
		req:  []byte("GET /viewItem?itemId=7 HTTP/1.1\r\nHost: 127.0.0.1\r\nUser-Agent: loopback\r\nAccept-Encoding: gzip\r\n\r\n"),
		buf:  make([]byte, 64<<10),
	}
	l.learn(t) // the miss
	l.learn(t) // the first hit: a hit's reply length
	return l
}

// learn sends one request and reads its reply by parsing it, recording the
// reply's byte length.
func (l *loopbackHit) learn(t testing.TB) {
	t.Helper()
	if _, err := l.conn.Write(l.req); err != nil {
		t.Fatal(err)
	}
	l.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n := 0
	for {
		m, err := l.conn.Read(l.buf[n:])
		if err != nil {
			t.Fatal(err)
		}
		n += m
		head, body, ok := bytes.Cut(l.buf[:n], []byte("\r\n\r\n"))
		if !ok {
			continue
		}
		resp, err := http.ReadResponse(bufio.NewReader(io.MultiReader(bytes.NewReader(head), strings.NewReader("\r\n\r\n"))), nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "gzip" {
			t.Fatalf("reply %d, encoding %q", resp.StatusCode, resp.Header.Get("Content-Encoding"))
		}
		if int64(len(body)) == resp.ContentLength {
			l.n = n
			l.conn.SetReadDeadline(time.Time{})
			return
		}
	}
}

// hit sends one request and reads exactly one hit's reply.
func (l *loopbackHit) hit() error {
	if _, err := l.conn.Write(l.req); err != nil {
		return err
	}
	_, err := io.ReadFull(l.conn, l.buf[:l.n])
	return err
}

// TestLoopbackHitAllocs pins the whole server side of a keep-alive cache
// hit over a real socket — request parse, page key, lookup, negotiation,
// head and body write — at no more than 8 heap allocations per request:
// the request line, each of the three header fields' name and value, and
// the page key. net/http's server made 29 on the same exchange.
func TestLoopbackHitAllocs(t *testing.T) {
	l := newLoopbackHit(t)
	allocs := testing.AllocsPerRun(5000, func() {
		if err := l.hit(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per keep-alive hit", allocs)
	if allocs > 8 {
		t.Fatalf("%.0f allocs per keep-alive hit, want at most 8", allocs)
	}
}

// BenchmarkLoopbackHit is one keep-alive hit over a loopback socket,
// client included.
func BenchmarkLoopbackHit(b *testing.B) {
	l := newLoopbackHit(b)
	b.ReportAllocs()
	for b.Loop() {
		if err := l.hit(); err != nil {
			b.Fatal(err)
		}
	}
}
