package cluster

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/codec"
	"autowebcache/internal/datasource"
)

// The peer protocol: each message is one length-prefixed frame,
//
//	[4B total length][1B message type][4B meta length][meta][raw body]
//
// where the total length covers everything after itself. Page bodies travel
// as the raw trailing bytes — never inside the meta — so a fetch moves the
// stored body with one copy onto the wire. A frame leaves in one Write.
// Requests and responses alternate strictly on one connection; concurrency
// comes from the per-peer connection pool, not from multiplexing.
//
// The meta is each message type's fields in a fixed order, in the binary
// encoding of package codec; a meta with trailing bytes is refused.
//
// The type codes start at 0x11. Codes 1–10 carried JSON metas in an earlier
// encoding, and 0x15–0x16 an invalidation of exactly one capture in an
// earlier layout; nodes that disagree on a message's encoding refuse each
// other's frames as an unknown or unexpected type — the connection drops
// and the breaker counts the failure — instead of misreading them.
const (
	msgGet       byte = 0x11 // fetch a page from its owner; body: none
	msgGetResp   byte = 0x12 // body: the page body when found
	msgPut       byte = 0x13 // replicate a page to an owner; body: the page body
	msgPutResp   byte = 0x14
	msgFlush     byte = 0x17 // drop every cached page
	msgFlushResp byte = 0x18
	msgPing      byte = 0x19 // health probe; meta carries the sender's broadcast watermark
	msgPong      byte = 0x1a
	msgInv       byte = 0x1b // apply a write request's invalidations; meta carries its captures
	msgInvResp   byte = 0x1c
)

// maxFrame bounds a frame so a corrupt or hostile length prefix cannot make
// a peer allocate unboundedly. Cached pages are HTML; 64 MiB is generous.
const maxFrame = 64 << 20

// meta is a frame's metadata. Each message type appends its fields in a
// fixed order and decodes them in the same order.
type meta interface {
	appendTo(b []byte) []byte
	decode(d *codec.Decoder)
}

// getMeta asks for one page.
type getMeta struct {
	Key string
}

func (m *getMeta) appendTo(b []byte) []byte { return codec.AppendString(b, m.Key) }
func (m *getMeta) decode(d *codec.Decoder)  { m.Key = d.Str() }

// getRespMeta describes the fetched page; the body rides as frame body.
// Deps carry the page's dependency information so the fetching node can
// insert a locally-invalidatable replica, and TTLNanos the remaining
// freshness window (0 = lives until invalidated).
type getRespMeta struct {
	Found       bool
	ContentType string
	TTLNanos    int64
	Deps        []analysis.Query
	// Applied is the exporter's invalidation vector (origin -> last applied
	// broadcast seq, plus its own completed-broadcast watermark). A fetcher
	// that has applied an invalidation the exporter missed discards the
	// page: it may predate that invalidation.
	Applied map[string]uint64
}

func (m *getRespMeta) appendTo(b []byte) []byte {
	b = codec.AppendBool(b, m.Found)
	b = codec.AppendString(b, m.ContentType)
	b = codec.AppendVarint(b, m.TTLNanos)
	b = codec.AppendQueries(b, m.Deps)
	return codec.AppendVector(b, m.Applied)
}

func (m *getRespMeta) decode(d *codec.Decoder) {
	m.Found = d.Bool()
	m.ContentType = d.Str()
	m.TTLNanos = d.Varint()
	m.Deps = d.Queries()
	m.Applied = d.Vector()
}

// putMeta replicates a locally generated page to the key's owner.
type putMeta struct {
	Key         string
	ContentType string
	TTLNanos    int64
	Deps        []analysis.Query
	// Applied is the offering node's invalidation vector; the owner refuses
	// the replica when the offerer has missed an invalidation the owner
	// already applied (the page may be stale).
	Applied map[string]uint64
}

func (m *putMeta) appendTo(b []byte) []byte {
	b = codec.AppendString(b, m.Key)
	b = codec.AppendString(b, m.ContentType)
	b = codec.AppendVarint(b, m.TTLNanos)
	b = codec.AppendQueries(b, m.Deps)
	return codec.AppendVector(b, m.Applied)
}

func (m *putMeta) decode(d *codec.Decoder) {
	m.Key = d.Str()
	m.ContentType = d.Str()
	m.TTLNanos = d.Varint()
	m.Deps = d.Queries()
	m.Applied = d.Vector()
}

type putRespMeta struct {
	OK bool
}

func (m *putRespMeta) appendTo(b []byte) []byte { return codec.AppendBool(b, m.OK) }
func (m *putRespMeta) decode(d *codec.Decoder)  { m.OK = d.Bool() }

// invMeta carries one write request's captures for remote invalidation, in
// the order the request executed them. Flush is the dedicated msgFlush, not
// an empty capture. Origin/Seq sequence the broadcast: Seq is the origin
// node's monotonically increasing broadcast counter, and the origin
// serializes its broadcasts end to end, so a receiver that sees seq jump
// past last+1 provably missed a broadcast (it was down or partitioned) and
// must quarantine-flush.
type invMeta struct {
	Captures []analysis.WriteCapture
	Origin   string
	Seq      uint64
}

func (m *invMeta) appendTo(b []byte) []byte {
	b = codec.AppendList(b, len(m.Captures), m.Captures == nil)
	for i := range m.Captures {
		b = appendCapture(b, &m.Captures[i])
	}
	b = codec.AppendString(b, m.Origin)
	return codec.AppendUvarint(b, m.Seq)
}

func (m *invMeta) decode(d *codec.Decoder) {
	if n, ok := d.List(); ok {
		m.Captures = make([]analysis.WriteCapture, n)
		for i := range m.Captures {
			decodeCapture(d, &m.Captures[i])
		}
	}
	m.Origin = d.Str()
	m.Seq = d.Uvarint()
}

func appendCapture(b []byte, w *analysis.WriteCapture) []byte {
	b = codec.AppendString(b, w.SQL)
	b = codec.AppendValues(b, w.Args)
	b = codec.AppendBool(b, w.Affected != nil)
	if w.Affected != nil {
		b = codec.AppendList(b, len(w.Affected.Columns), w.Affected.Columns == nil)
		for _, c := range w.Affected.Columns {
			b = codec.AppendString(b, c)
		}
		b = codec.AppendList(b, len(w.Affected.Data), w.Affected.Data == nil)
		for _, row := range w.Affected.Data {
			b = codec.AppendValues(b, row)
		}
	}
	b = codec.AppendVarint(b, w.AutoID)
	return codec.AppendBool(b, w.HasAutoID)
}

func decodeCapture(d *codec.Decoder, w *analysis.WriteCapture) {
	w.SQL = d.Str()
	w.Args = d.Values()
	if d.Bool() {
		rows := &datasource.Rows{}
		if n, ok := d.List(); ok {
			rows.Columns = make([]string, n)
			for i := range rows.Columns {
				rows.Columns[i] = d.Str()
			}
		}
		if n, ok := d.List(); ok {
			rows.Data = make([][]datasource.Value, n)
			for i := range rows.Data {
				rows.Data[i] = d.Values()
			}
		}
		w.Affected = rows
	}
	w.AutoID = d.Varint()
	w.HasAutoID = d.Bool()
}

// invRespMeta reports how many pages the peer removed. Nodes whose versions
// encode it differently still interoperate only because the broadcaster
// never decodes it: broadcast passes no response meta
// (p.call(typ, req, nil, nil)), so only the frame type is checked. Keep it
// that way, or version this meta, before reading it on the sending side.
type invRespMeta struct {
	Pages int
}

func (m *invRespMeta) appendTo(b []byte) []byte { return codec.AppendVarint(b, int64(m.Pages)) }
func (m *invRespMeta) decode(d *codec.Decoder)  { m.Pages = int(d.Varint()) }

// flushMeta sequences a flush broadcast exactly like invMeta sequences a
// write; a flush covers any gap by itself (the receiver drops everything).
type flushMeta struct {
	Origin string
	Seq    uint64
}

func (m *flushMeta) appendTo(b []byte) []byte {
	return codec.AppendUvarint(codec.AppendString(b, m.Origin), m.Seq)
}

func (m *flushMeta) decode(d *codec.Decoder) {
	m.Origin = d.Str()
	m.Seq = d.Uvarint()
}

type flushRespMeta struct {
	OK bool
}

func (m *flushRespMeta) appendTo(b []byte) []byte { return codec.AppendBool(b, m.OK) }
func (m *flushRespMeta) decode(d *codec.Decoder)  { m.OK = d.Bool() }

// pingMeta is a health probe. Origin is the sender's ring identity and Seq
// its completed-broadcast watermark: every invalidation the sender has
// finished broadcasting has seq <= Seq, so a receiver whose applied counter
// for Origin is behind provably missed one — this is how a rejoining peer
// discovers its gap (and flushes) on the first probe after heal, not on
// the next write.
type pingMeta struct {
	Origin string
	Seq    uint64
}

func (m *pingMeta) appendTo(b []byte) []byte {
	return codec.AppendUvarint(codec.AppendString(b, m.Origin), m.Seq)
}

func (m *pingMeta) decode(d *codec.Decoder) {
	m.Origin = d.Str()
	m.Seq = d.Uvarint()
}

// pongMeta echoes the responder's last-applied seq for the pinger's origin
// (observability only; the pinger does not act on it).
type pongMeta struct {
	OK      bool
	Applied uint64
}

func (m *pongMeta) appendTo(b []byte) []byte {
	return codec.AppendUvarint(codec.AppendBool(b, m.OK), m.Applied)
}

func (m *pongMeta) decode(d *codec.Decoder) {
	m.OK = d.Bool()
	m.Applied = d.Uvarint()
}

// ttlFromNanos converts a wire TTL, clamping negatives (a page that expired
// in flight) to a one-nanosecond TTL so the insert expires immediately
// instead of living forever.
func ttlFromNanos(n int64) time.Duration {
	if n < 0 {
		return time.Nanosecond
	}
	return time.Duration(n)
}

// framePool recycles frame buffers. A buffer grown past maxPooledFrame is
// dropped instead, so one huge page does not stay resident in the pool.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 64 << 10

// writeFrame encodes one frame — header, meta and body in one buffer — and
// writes it with a single Write.
func writeFrame(w io.Writer, typ byte, m meta, body []byte) error {
	bp := framePool.Get().(*[]byte)
	b := append((*bp)[:0], 0, 0, 0, 0, typ, 0, 0, 0, 0)
	b = m.appendTo(b)
	total := len(b) - 4 + len(body)
	var err error
	if total > maxFrame {
		err = fmt.Errorf("cluster: frame too large (%d bytes)", total)
	} else {
		binary.BigEndian.PutUint32(b, uint32(total))
		binary.BigEndian.PutUint32(b[5:], uint32(len(b)-9))
		b = append(b, body...)
		_, err = w.Write(b)
	}
	if cap(b) <= maxPooledFrame {
		*bp = b
		framePool.Put(bp)
	}
	return err
}

// readFrame reads one frame, returning the message type, the raw meta and
// the raw body. Both alias the frame's read buffer, which the caller owns
// from here on.
func readFrame(r *bufio.Reader) (typ byte, meta, body []byte, err error) {
	hdr, err := r.Peek(4)
	if err != nil {
		return 0, nil, nil, err
	}
	total := binary.BigEndian.Uint32(hdr)
	if total < 5 || total > maxFrame {
		return 0, nil, nil, fmt.Errorf("cluster: bad frame length %d", total)
	}
	r.Discard(4) // cannot fail: Peek buffered these bytes
	payload := make([]byte, total)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, nil, err
	}
	typ = payload[0]
	metaLen := binary.BigEndian.Uint32(payload[1:5])
	if uint64(5)+uint64(metaLen) > uint64(total) {
		return 0, nil, nil, fmt.Errorf("cluster: bad meta length %d in %d-byte frame", metaLen, total)
	}
	return typ, payload[5 : 5+metaLen], payload[5+metaLen:], nil
}

// decodeMeta decodes a frame's meta into m, refusing trailing bytes.
func decodeMeta(typ byte, raw []byte, m meta) error {
	d := codec.NewDecoder(raw)
	m.decode(d)
	if err := d.Finish(); err != nil {
		return fmt.Errorf("cluster: decode type-%#x meta: %w", typ, err)
	}
	return nil
}
