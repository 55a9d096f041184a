package cluster

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

// frameHandler serves one decoded request frame and returns the response
// frame. Node implements it.
type frameHandler interface {
	handleFrame(typ byte, raw, body []byte) (respTyp byte, resp meta, respBody []byte, err error)
}

// server accepts peer connections and serves request/response frames.
type server struct {
	ln      net.Listener
	h       frameHandler
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   map[net.Conn]bool
	closing bool
}

func newServer(ln net.Listener, h frameHandler) *server {
	s := &server{ln: ln, h: h, conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

func (s *server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReader(conn)
	for {
		typ, raw, body, err := readFrame(r)
		if err != nil {
			return // EOF, peer gone, or garbage: drop the connection
		}
		respTyp, resp, respBody, err := s.h.handleFrame(typ, raw, body)
		if err != nil {
			return
		}
		if err := writeFrame(conn, respTyp, resp, respBody); err != nil {
			return
		}
	}
}

// close stops accepting, severs live connections and waits for handlers.
func (s *server) close() {
	s.mu.Lock()
	s.closing = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

// maxIdleConns bounds the per-peer connection pool. Requests beyond the
// pool dial fresh connections and the surplus is closed on return.
const maxIdleConns = 4

// dialFunc dials one peer; cluster.Config.Dial overrides it so tests and
// the fault injector can interpose without this package importing them.
type dialFunc func(addr string, timeout time.Duration) (net.Conn, error)

func tcpDial(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

// peer is the client side of one remote node: a small pool of persistent
// connections carrying strictly alternating request/response frames, plus
// the node's view of that peer's health (failure detector + breaker).
type peer struct {
	addr        string
	dialTimeout time.Duration
	callTimeout time.Duration
	dial        dialFunc
	health      *health
	// onChange is invoked once per health state transition (never per
	// failed call) so the node can log and count it.
	onChange func(addr string, from, to PeerState)

	mu     sync.Mutex
	idle   []peerConn
	closed bool
}

// peerConn is a pooled client connection with its read buffer. Requests and
// responses alternate strictly, so a pooled connection never has a frame
// left in its buffer.
type peerConn struct {
	net.Conn
	r *bufio.Reader
}

func newPeer(addr string, dialTimeout, callTimeout time.Duration, dial dialFunc, h *health) *peer {
	if dial == nil {
		dial = tcpDial
	}
	return &peer{addr: addr, dialTimeout: dialTimeout, callTimeout: callTimeout, dial: dial, health: h}
}

// call performs one round trip, decoding the response meta into resp
// (when non-nil) and returning the raw response body. A down peer fails
// instantly with errBreakerOpen — no dial, no CallTimeout; every real
// outcome feeds the health state machine.
func (p *peer) call(typ byte, req meta, body []byte, resp meta) ([]byte, error) {
	if !p.health.allow() {
		return nil, errBreakerOpen
	}
	b, err := p.roundTrip(typ, req, body, resp)
	if err != nil {
		p.noteFailure()
		return nil, err
	}
	p.noteSuccess()
	return b, nil
}

// probe is call for the health loop: it bypasses an open breaker — it IS
// the down peer's half-open trial — and feeds the state machine like any
// other call.
func (p *peer) probe(typ byte, req, resp meta) error {
	if _, err := p.roundTrip(typ, req, nil, resp); err != nil {
		p.noteFailure()
		return err
	}
	p.noteSuccess()
	return nil
}

func (p *peer) noteSuccess() {
	if from, to, changed := p.health.onSuccess(); changed && p.onChange != nil {
		p.onChange(p.addr, from, to)
	}
}

func (p *peer) noteFailure() {
	if from, to, changed := p.health.onFailure(time.Now()); changed && p.onChange != nil {
		p.onChange(p.addr, from, to)
	}
}

// roundTrip is the raw frame exchange. Any transport error discards the
// connection; the caller treats errors as a miss or a best-effort failure,
// never retries into the same broken pipe.
func (p *peer) roundTrip(typ byte, req meta, body []byte, resp meta) ([]byte, error) {
	conn, err := p.get()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(p.callTimeout)
	if err := conn.SetDeadline(deadline); err != nil {
		conn.Close()
		return nil, err
	}
	if err := writeFrame(conn, typ, req, body); err != nil {
		conn.Close()
		return nil, err
	}
	gotTyp, gotMeta, gotBody, err := readFrame(conn.r)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if gotTyp != typ+1 {
		conn.Close()
		return nil, errUnexpectedResponse(gotTyp, typ+1)
	}
	if resp != nil {
		if err := decodeMeta(gotTyp, gotMeta, resp); err != nil {
			conn.Close()
			return nil, err
		}
	}
	p.put(conn)
	return gotBody, nil
}

type errUnexpected struct{ got, want byte }

func errUnexpectedResponse(got, want byte) error { return errUnexpected{got, want} }

func (e errUnexpected) Error() string {
	return fmt.Sprintf("cluster: unexpected response type %#x (want %#x)", e.got, e.want)
}

// get pops an idle connection or dials a new one.
func (p *peer) get() (peerConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return peerConn{}, net.ErrClosed
	}
	if n := len(p.idle); n > 0 {
		c := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	c, err := p.dial(p.addr, p.dialTimeout)
	if err != nil {
		return peerConn{}, err
	}
	return peerConn{Conn: c, r: bufio.NewReader(c)}, nil
}

// put returns a healthy connection to the pool. A connection whose
// deadline cannot be cleared is dead or dying; pooling it would hand a
// later call a poisoned pipe, so it is closed instead.
func (p *peer) put(c peerConn) {
	if err := c.SetDeadline(time.Time{}); err != nil {
		c.Close()
		return
	}
	p.mu.Lock()
	if p.closed || len(p.idle) >= maxIdleConns {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// close drops the pool. In-flight calls finish on their own connections.
func (p *peer) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}
