package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/codec"
	"autowebcache/internal/memdb"
)

// roundTrip writes m as a frame of type typ, reads it back, and decodes the
// meta into a fresh meta of the frame's kind.
func roundTrip(t *testing.T, typ byte, m meta, body []byte) (meta, []byte) {
	t.Helper()
	gotTyp, raw, gotBody, err := readFrame(frameReader(encodeFrame(t, typ, m, body)))
	if err != nil {
		t.Fatal(err)
	}
	if gotTyp != typ {
		t.Fatalf("type = %#x, want %#x", gotTyp, typ)
	}
	got := metaFor(gotTyp)
	if err := decodeMeta(gotTyp, raw, got); err != nil {
		t.Fatal(err)
	}
	return got, gotBody
}

// sameBits is reflect.DeepEqual with floats compared by bit pattern, so NaN
// matches itself and -0.0 does not match 0.0.
func sameBits(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() || (a.IsValid() && a.Type() != b.Type()) {
		return false
	}
	if !a.IsValid() {
		return true
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Interface, reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); !bv.IsValid() || !sameBits(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

func TestWireCaptureRoundTrip(t *testing.T) {
	capture := func(t *testing.T, w analysis.WriteCapture) analysis.WriteCapture {
		t.Helper()
		got, _ := roundTrip(t, msgInv, &invMeta{Captures: []analysis.WriteCapture{w}}, nil)
		return got.(*invMeta).Captures[0]
	}
	w := analysis.WriteCapture{
		Query: analysis.Query{
			SQL:  "UPDATE items SET qty = ? WHERE id = ?",
			Args: []memdb.Value{int64(5), int64(9)},
		},
		Affected: &memdb.Rows{
			Columns: []string{"id", "name", "qty"},
			Data: [][]memdb.Value{
				{int64(9), "anvil", int64(3)},
				{int64(10), nil, 1.5},
			},
		},
		AutoID:    77,
		HasAutoID: true,
	}
	if got := capture(t, w); !reflect.DeepEqual(got, w) {
		t.Fatalf("capture round trip:\n got %#v\nwant %#v", got, w)
	}

	// No affected rows: the pointer must stay nil (template-level path).
	w2 := analysis.WriteCapture{Query: analysis.Query{SQL: "DELETE FROM t WHERE a = ?", Args: []memdb.Value{"x"}}}
	got2 := capture(t, w2)
	if got2.Affected != nil {
		t.Fatalf("nil Affected materialised: %#v", got2.Affected)
	}
	if !reflect.DeepEqual(got2, w2) {
		t.Fatalf("capture round trip: %#v != %#v", got2, w2)
	}
}

// TestMetaRoundTrip covers every message type with the values the codec
// must not bend: the int64 extremes, -0.0 and NaN (compared by bits), empty
// strings, nil against empty lists and maps, and nil, empty and 0-row
// captured row sets.
func TestMetaRoundTrip(t *testing.T) {
	edge := []memdb.Value{nil, int64(math.MinInt64), int64(math.MaxInt64), int64(0),
		math.Copysign(0, -1), math.NaN(), math.Inf(-1), "", "héllo"}
	deps := []analysis.Query{
		{SQL: "SELECT a FROM t WHERE b = ?", Args: edge},
		{SQL: "SELECT 1"},
		{SQL: "", Args: []memdb.Value{}},
	}
	vector := map[string]uint64{"10.0.0.1:9091": math.MaxUint64, "": 0}
	capture := func(sql string, args []memdb.Value, rows *memdb.Rows) analysis.WriteCapture {
		return analysis.WriteCapture{Query: analysis.Query{SQL: sql, Args: args}, Affected: rows}
	}
	cases := []struct {
		name string
		typ  byte
		m    meta
	}{
		{"get", msgGet, &getMeta{Key: "/page?x=1"}},
		{"get/empty key", msgGet, &getMeta{}},
		{"get-resp/not found", msgGetResp, &getRespMeta{}},
		{"get-resp", msgGetResp, &getRespMeta{Found: true, ContentType: "text/html",
			TTLNanos: math.MinInt64, Deps: deps, Applied: vector}},
		{"get-resp/empty deps and vector", msgGetResp, &getRespMeta{Found: true,
			TTLNanos: math.MaxInt64, Deps: []analysis.Query{}, Applied: map[string]uint64{}}},
		{"put", msgPut, &putMeta{Key: "/k", TTLNanos: -1, Deps: deps, Applied: vector}},
		{"put/nil deps and vector", msgPut, &putMeta{Key: "/k", ContentType: "text/html"}},
		{"put-resp", msgPutResp, &putRespMeta{OK: true}},
		{"put-resp/refused", msgPutResp, &putRespMeta{}},
		{"inv", msgInv, &invMeta{Origin: "10.0.0.1:9091", Seq: math.MaxUint64, Captures: []analysis.WriteCapture{{
			Query:    analysis.Query{SQL: "UPDATE t SET a = ? WHERE b = ?", Args: edge},
			Affected: &memdb.Rows{Columns: []string{"a", ""}, Data: [][]memdb.Value{edge, nil, {}}},
			AutoID:   math.MinInt64, HasAutoID: true,
		}}}},
		{"inv/two captures", msgInv, &invMeta{Origin: "10.0.0.1:9091", Seq: 2, Captures: []analysis.WriteCapture{
			capture("INSERT INTO t (a) VALUES (?)", []memdb.Value{int64(1)}, nil),
			capture("UPDATE t SET a = ? WHERE b = ?", []memdb.Value{int64(2), "x"}, &memdb.Rows{Columns: []string{"a", "b"}}),
		}}},
		{"inv/nil captures", msgInv, &invMeta{Origin: "10.0.0.1:9091", Seq: 3}},
		{"inv/nil args, nil affected", msgInv, &invMeta{Captures: []analysis.WriteCapture{capture("DELETE FROM t", nil, nil)}}},
		{"inv/empty args", msgInv, &invMeta{Captures: []analysis.WriteCapture{capture("DELETE FROM t", []memdb.Value{}, nil)}}},
		{"inv/0-row affected", msgInv, &invMeta{Captures: []analysis.WriteCapture{capture("DELETE FROM t WHERE a = ?", []memdb.Value{int64(1)},
			&memdb.Rows{Columns: []string{"a"}, Data: [][]memdb.Value{}})}}},
		{"inv/empty affected", msgInv, &invMeta{Captures: []analysis.WriteCapture{capture("DELETE FROM t", nil, &memdb.Rows{})}}},
		{"inv-resp", msgInvResp, &invRespMeta{Pages: math.MaxInt}},
		{"flush", msgFlush, &flushMeta{Origin: "10.0.0.1:9091", Seq: 19}},
		{"flush-resp", msgFlushResp, &flushRespMeta{OK: true}},
		{"ping", msgPing, &pingMeta{Origin: "10.0.0.1:9091", Seq: 19}},
		{"ping/empty", msgPing, &pingMeta{}},
		{"pong", msgPong, &pongMeta{OK: true, Applied: math.MaxUint64}},
	}
	covered := map[byte]bool{}
	for _, c := range cases {
		covered[c.typ] = true
		got, _ := roundTrip(t, c.typ, c.m, nil)
		if !sameBits(reflect.ValueOf(got), reflect.ValueOf(c.m)) {
			t.Errorf("%s:\n got %#v\nwant %#v", c.name, got, c.m)
		}
	}
	for typ := msgGet; typ <= msgInvResp; typ++ {
		if metaFor(typ) != nil && !covered[typ] { // 0x15–0x16 are retired
			t.Errorf("message type %#x has no round-trip case", typ)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	body := []byte("<html>page body</html>")
	m := &getRespMeta{Found: true, ContentType: "text/html", TTLNanos: 123,
		Deps: []analysis.Query{{SQL: "SELECT a FROM t WHERE b = ?", Args: []memdb.Value{int64(1)}}}}
	got, gotBody := roundTrip(t, msgGetResp, m, body)
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("meta: %#v != %#v", got, m)
	}
	if !bytes.Equal(gotBody, body) {
		t.Fatalf("body: %q != %q", gotBody, body)
	}
}

// countingWriter counts Write calls: each one is a write(2) on a socket.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestFrameSingleWrite: a frame with a body leaves in one Write, so a fetch
// response or an offer is one loopback segment, not a header and a body.
func TestFrameSingleWrite(t *testing.T) {
	m, body := realisticGetResp()
	var w countingWriter
	if err := writeFrame(&w, msgGetResp, m, body); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("get-resp frame took %d writes, want 1", w.writes)
	}
	typ, _, gotBody, err := readFrame(frameReader(w.Bytes()))
	if err != nil || typ != msgGetResp || !bytes.Equal(gotBody, body) {
		t.Fatalf("typ=%#x body=%d bytes err=%v", typ, len(gotBody), err)
	}
}

func TestFrameEmptyBody(t *testing.T) {
	typ, _, body, err := readFrame(frameReader(encodeFrame(t, msgFlush, &flushMeta{}, nil)))
	if err != nil || typ != msgFlush || len(body) != 0 {
		t.Fatalf("typ=%#x body=%q err=%v", typ, body, err)
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	// A length prefix beyond maxFrame must be rejected before allocation.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0}
	if _, _, _, err := readFrame(frameReader(huge)); err == nil {
		t.Fatal("accepted oversized frame")
	}
	// A meta length pointing past the frame end must be rejected.
	b := encodeFrame(t, msgGet, &getMeta{Key: "k"}, nil)
	b[5], b[6], b[7], b[8] = 0xFF, 0xFF, 0xFF, 0xFF // corrupt meta length
	if _, _, _, err := readFrame(frameReader(b)); err == nil ||
		!strings.Contains(err.Error(), "meta length") {
		t.Fatalf("err = %v", err)
	}
	// Truncated stream.
	if _, _, _, err := readFrame(frameReader([]byte("\x00\x00\x00\x10abc"))); err == nil {
		t.Fatal("accepted truncated frame")
	}
}

// TestDecodeMetaRefuses: the decoder rejects trailing bytes, unknown value
// tags, bad bools and truncation, and checks every count and length against
// the bytes left before allocating — a count near 2^62 is an error, not a
// panic or an out-of-memory crash.
func TestDecodeMetaRefuses(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	// A put meta up to its deps: key "k", empty content type, TTL 0.
	putPrefix := append(codec.AppendString(nil, "k"), 0, 0)
	// An inv meta up to its first capture: a list of one, capped so each
	// case's append copies it.
	oneCapture := slices.Clip(codec.AppendList(nil, 1, false))
	cases := []struct {
		name string
		typ  byte
		raw  []byte
		want string
	}{
		{"trailing bytes", msgGet, append(codec.AppendString(nil, "k"), 0), "trailing"},
		{"unknown value tag", msgInv, append(codec.AppendString(oneCapture, "DELETE FROM t WHERE a = ?"), 2, 0x7f), "tag"},
		{"bad bool", msgPutResp, []byte{2}, "bool"},
		{"truncated", msgPing, codec.AppendString(nil, "origin")[:3], "exceeds"},
		{"truncated float", msgInv, append(append(codec.AppendString(oneCapture, "x"), 2), codec.AppendValue(nil, 1.5)[:3]...), "truncated"},
		{"string length beyond bytes left", msgGet, append(huge, 'k'), "exceeds"},
		{"deps count beyond bytes left", msgPut, append(putPrefix, huge...), "exceeds"},
		{"args count beyond bytes left", msgInv, append(codec.AppendString(oneCapture, "x"), huge...), "exceeds"},
		{"vector count beyond bytes left", msgGetResp, append([]byte{1, 0, 0, 0}, huge...), "exceeds"},
		{"affected rows beyond bytes left", msgInv, append(append(codec.AppendString(oneCapture, "x"), 0, 1, 0), huge...), "exceeds"},
		{"captures count beyond bytes left", msgInv, huge, "exceeds"},
	}
	for _, c := range cases {
		err := decodeMeta(c.typ, c.raw, metaFor(c.typ))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

func TestTTLFromNanosClampsNegative(t *testing.T) {
	if d := ttlFromNanos(-5); d <= 0 {
		t.Fatalf("negative wire TTL must become a positive immediate expiry, got %v", d)
	}
	if d := ttlFromNanos(0); d != 0 {
		t.Fatalf("zero TTL must stay zero (no expiry), got %v", d)
	}
}

// jsonFrame encodes a frame the way the earlier JSON-meta protocol did:
// type codes 1–10, the meta as JSON.
func jsonFrame(typ byte, jsonMeta, body string) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(5+len(jsonMeta)+len(body)))
	b = append(b, typ)
	b = binary.BigEndian.AppendUint32(b, uint32(len(jsonMeta)))
	return append(append(b, jsonMeta...), body...)
}

// TestRefusesJSONMetaFrames: nodes of the JSON-meta and the binary encoding
// refuse each other's frames rather than misread them. The server drops a
// JSON-era request without answering or applying it — a misread put could
// otherwise insert a page under garbage deps — and the client refuses a
// JSON-era response and does not pool the connection.
func TestRefusesJSONMetaFrames(t *testing.T) {
	c, n := bareNode(t, Config{ProbeInterval: -1, Logf: func(string, ...any) {}})
	requests := []struct {
		typ        byte
		meta, body string
	}{
		{1, `{"key":"/k"}`, ""},
		{3, `{"key":"/k","ct":"text/html","deps":[{"sql":"SELECT a FROM t WHERE b = ?","args":[{"k":"i","i":1}]}]}`, "<p>x</p>"},
		{5, `{"capture":{"sql":"DELETE FROM t"},"origin":"10.0.0.9:9091","seq":1}`, ""},
		{7, `{"origin":"10.0.0.9:9091","seq":1}`, ""},
		{9, `{"origin":"10.0.0.9:9091","seq":1}`, ""},
	}
	for _, r := range requests {
		conn, err := net.Dial("tcp", n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second)) // hang guard only
		if _, err := conn.Write(jsonFrame(r.typ, r.meta, r.body)); err != nil {
			t.Fatal(err)
		}
		typ, _, _, err := readFrame(bufio.NewReader(conn))
		conn.Close()
		if err == nil {
			t.Fatalf("JSON-era type %d answered with type %#x", r.typ, typ)
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("JSON-era type %d: connection left open", r.typ)
		}
	}
	if _, ok := c.Export("/k"); ok {
		t.Fatal("a JSON-era put was applied")
	}
	if st := n.Snapshot(); st.GetsServed+st.PutsApplied+st.InvApplied+st.FlushApplied != 0 {
		t.Fatalf("a JSON-era request was served: %+v", st)
	}

	// Client side: a JSON-era owner answers a fetch with its get-resp.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, _, err := readFrame(bufio.NewReader(conn)); err == nil {
			conn.Write(jsonFrame(2, `{"found":true,"ct":"text/html"}`, "<p>x</p>"))
		}
	}()
	p := newPeer(ln.Addr().String(), 10*time.Second, 10*time.Second, nil,
		newHealth(defaultFailureThreshold, time.Second, time.Second, 1))
	var resp getRespMeta
	if _, err := p.call(msgGet, &getMeta{Key: "/k"}, nil, &resp); !errors.As(err, new(errUnexpected)) {
		t.Fatalf("JSON-era get-resp: err = %v, want an unexpected-response error", err)
	}
	if len(p.idle) != 0 || p.health.snapshot() == StateHealthy {
		t.Fatalf("refused response: %d pooled conns, peer %v", len(p.idle), p.health.snapshot())
	}
}

// TestRefusesOneCaptureInvFrames: a node drops, without applying it, an
// invalidation in the earlier one-capture layout (type 0x15), so a node of
// that layout can never have its invalidation misread as a capture list.
func TestRefusesOneCaptureInvFrames(t *testing.T) {
	_, n := bareNode(t, Config{ProbeInterval: -1, Logf: func(string, ...any) {}})
	m := codec.AppendString(nil, "DELETE FROM t")
	m = append(m, 0, 0)          // nil args, no affected rows
	m = codec.AppendVarint(m, 0) // auto id
	m = append(m, 0)             // no auto id
	m = codec.AppendString(m, "10.0.0.9:9091")
	m = codec.AppendUvarint(m, 1)
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second)) // hang guard only
	// The framing itself is unchanged, so jsonFrame builds the frame.
	if _, err := conn.Write(jsonFrame(0x15, string(m), "")); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := readFrame(bufio.NewReader(conn)); err == nil {
		t.Fatalf("a one-capture inv frame was answered with type %#x", typ)
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("a one-capture inv frame left the connection open")
	}
	if st := n.Snapshot(); st.InvApplied != 0 || st.GapFlushes != 0 {
		t.Fatalf("a one-capture inv frame was applied: %+v", st)
	}
}
