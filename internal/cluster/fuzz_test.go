package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/memdb"
)

// encodeFrame renders one frame via the production writer.
func encodeFrame(t testing.TB, typ byte, m meta, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, typ, m, body); err != nil {
		t.Fatalf("writeFrame(%#x): %v", typ, err)
	}
	return buf.Bytes()
}

// frameReader buffers b the way a peer connection is read.
func frameReader(b []byte) *bufio.Reader { return bufio.NewReader(bytes.NewReader(b)) }

// seedFrames builds a corpus of real peer-protocol messages: get/put/inv/
// flush requests and their responses, with deps, TTLs, bodies and an
// extra-query row snapshot — everything the wire can carry.
func seedFrames(t testing.TB) [][]byte {
	t.Helper()
	deps := []analysis.Query{
		{SQL: "SELECT a FROM t WHERE b = ?", Args: []memdb.Value{int64(7)}},
		{SQL: "SELECT x FROM u WHERE y = ? AND z = ?", Args: []memdb.Value{"s", 1.5}},
	}
	capture := analysis.WriteCapture{
		Query: analysis.Query{SQL: "UPDATE t SET a = ? WHERE b = ?", Args: []memdb.Value{int64(1), int64(7)}},
		Affected: &memdb.Rows{
			Columns: []string{"a", "b"},
			Data:    [][]memdb.Value{{int64(1), int64(7)}, {nil, "x"}},
		},
		AutoID: 42, HasAutoID: true,
	}
	body := bytes.Repeat([]byte("<html>frag</html>"), 8)
	vector := map[string]uint64{"10.0.0.1:9091": 17, "10.0.0.2:9091": 3}
	return [][]byte{
		encodeFrame(t, msgGet, &getMeta{Key: "/page?x=1"}, nil),
		encodeFrame(t, msgGet, &getMeta{Key: "/page#frag?x=1"}, nil),
		encodeFrame(t, msgGetResp, &getRespMeta{Found: false}, nil),
		encodeFrame(t, msgGetResp, &getRespMeta{Found: true, ContentType: "text/html", TTLNanos: int64(30 * time.Second), Deps: deps, Applied: vector}, body),
		encodeFrame(t, msgPut, &putMeta{Key: "/k", ContentType: "text/html", Deps: deps, Applied: vector}, body),
		encodeFrame(t, msgPutResp, &putRespMeta{OK: true}, nil),
		encodeFrame(t, msgInv, &invMeta{Captures: []analysis.WriteCapture{capture}, Origin: "10.0.0.1:9091", Seq: 18}, nil),
		encodeFrame(t, msgInv, &invMeta{Captures: []analysis.WriteCapture{capture, {
			Query:  analysis.Query{SQL: "INSERT INTO t (a, b) VALUES (?, ?)", Args: []memdb.Value{int64(2), "y"}},
			AutoID: 43, HasAutoID: true,
		}}, Origin: "10.0.0.1:9091", Seq: 19}, nil),
		encodeFrame(t, msgInvResp, &invRespMeta{Pages: 3}, nil),
		encodeFrame(t, msgFlush, &flushMeta{Origin: "10.0.0.1:9091", Seq: 19}, nil),
		encodeFrame(t, msgFlushResp, &flushRespMeta{OK: true}, nil),
		encodeFrame(t, msgPing, &pingMeta{Origin: "10.0.0.1:9091", Seq: 19}, nil),
		encodeFrame(t, msgPong, &pongMeta{OK: true, Applied: 19}, nil),
	}
}

// metaFor returns an empty meta of the kind a frame of type typ carries —
// what the server and client sides decode into — or nil for an unknown type.
func metaFor(typ byte) meta {
	switch typ {
	case msgGet:
		return &getMeta{}
	case msgGetResp:
		return &getRespMeta{}
	case msgPut:
		return &putMeta{}
	case msgPutResp:
		return &putRespMeta{}
	case msgInv:
		return &invMeta{}
	case msgInvResp:
		return &invRespMeta{}
	case msgFlush:
		return &flushMeta{}
	case msgFlushResp:
		return &flushRespMeta{}
	case msgPing:
		return &pingMeta{}
	case msgPong:
		return &pongMeta{}
	}
	return nil
}

// decodeMetaFor routes a frame's meta through the same decode the server
// and client sides perform, so the fuzzer exercises the full parse.
func decodeMetaFor(typ byte, raw []byte) {
	if m := metaFor(typ); m != nil {
		_ = decodeMeta(typ, raw, m) // garbage is refused; only a panic fails
	}
}

// FuzzDecodeFrame fuzzes the peer-protocol decoder with raw bytes and with
// mutated-but-well-framed messages. Properties:
//
//   - readFrame (and the per-type meta decode behind it) never panics on
//     any input;
//   - no frame can make the decoder retain more than the 64 MiB cap;
//   - framing is self-synchronising: after any frame whose length fields
//     are consistent — whatever garbage its meta and body carry — the NEXT
//     message on the stream still decodes intact, so one corrupt (or
//     hostile) payload cannot mis-frame the connection.
func FuzzDecodeFrame(f *testing.F) {
	for _, frame := range seedFrames(f) {
		f.Add(frame)
	}
	// Adversarial length-prefix seeds: truncated, oversized, inner meta
	// length past the frame end.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add(binary.BigEndian.AppendUint32(nil, maxFrame+1))
	f.Add(append(binary.BigEndian.AppendUint32(nil, 10), msgGet, 0xff, 0xff, 0xff, 0xff, 'x', 'y', 'z', 'w', 'v'))

	sentinel := encodeFrame(f, msgFlush, &flushMeta{}, nil)

	f.Fuzz(func(t *testing.T, data []byte) {
		// 1. Raw decode: whatever the bytes, never panic, never accept a
		// frame beyond the cap, always consume forward.
		r := frameReader(data)
		for i := 0; i < 64; i++ {
			typ, raw, body, err := readFrame(r)
			if err != nil {
				break
			}
			if len(raw)+len(body)+5 > maxFrame {
				t.Fatalf("decoder retained %d bytes, beyond the %d cap", len(raw)+len(body), maxFrame)
			}
			decodeMetaFor(typ, raw)
		}

		// 2. Framing integrity: wrap the fuzz bytes as a well-framed
		// message (split into meta and body), append a pristine sentinel
		// frame, and require both to decode exactly.
		metaPart := data
		var bodyPart []byte
		if len(data) > 1 {
			cut := int(data[0]) % len(data)
			metaPart, bodyPart = data[:cut], data[cut:]
		}
		total := 1 + 4 + len(metaPart) + len(bodyPart)
		if total > maxFrame {
			return
		}
		var stream bytes.Buffer
		stream.Write(binary.BigEndian.AppendUint32(nil, uint32(total)))
		stream.WriteByte(msgInv) // arbitrary valid type with garbage meta
		stream.Write(binary.BigEndian.AppendUint32(nil, uint32(len(metaPart))))
		stream.Write(metaPart)
		stream.Write(bodyPart)
		stream.Write(sentinel)

		sr := frameReader(stream.Bytes())
		typ, raw, body, err := readFrame(sr)
		if err != nil {
			t.Fatalf("well-framed garbage rejected: %v", err)
		}
		if typ != msgInv || !bytes.Equal(raw, metaPart) || !bytes.Equal(body, bodyPart) {
			t.Fatalf("frame payload mangled: typ=%#x meta=%d body=%d bytes", typ, len(raw), len(body))
		}
		decodeMetaFor(typ, raw) // must not panic on a garbage meta either
		styp, smeta, sbody, err := readFrame(sr)
		if err != nil {
			t.Fatalf("stream desynchronised after garbage frame: %v", err)
		}
		if styp != msgFlush || len(sbody) != 0 {
			t.Fatalf("sentinel mis-framed: typ=%#x meta=%q body=%d bytes", styp, smeta, len(sbody))
		}
	})
}

// TestReadFrameRejectsOversized pins the allocation cap: a hostile length
// prefix beyond maxFrame is refused before any payload is read.
func TestReadFrameRejectsOversized(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	if _, _, _, err := readFrame(frameReader(hdr)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// And writeFrame refuses to produce one.
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgPut, &putMeta{Key: "k"}, make([]byte, maxFrame)); err == nil {
		t.Fatal("writeFrame produced an over-cap frame")
	}
	if buf.Len() != 0 {
		t.Fatalf("a refused frame wrote %d bytes", buf.Len())
	}
}

// TestReadFrameRejectsBadMetaLength pins the inner bound: a meta length
// pointing past the frame end errors instead of slicing out of range.
func TestReadFrameRejectsBadMetaLength(t *testing.T) {
	frame := append(binary.BigEndian.AppendUint32(nil, 10), msgGet)
	frame = binary.BigEndian.AppendUint32(frame, 9999)
	frame = append(frame, make([]byte, 5)...)
	if _, _, _, err := readFrame(frameReader(frame)); err == nil {
		t.Fatal("meta length past frame end accepted")
	}
}
