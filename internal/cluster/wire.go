package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"autowebcache/internal/analysis"
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
// The meta is binary, each message type's fields in a fixed order:
//
//   - lengths, counts and unsigned integers are uvarints; signed integers
//     are zigzag varints; a bool is one byte, 0 or 1;
//   - a string is its uvarint length, then its bytes;
//   - a value is a tag byte, then nothing (nil), a zigzag varint (int64),
//     8 little-endian IEEE-754 bytes (float64) or a string;
//   - a list or map that may be nil (query args, the applied vector, a
//     captured row set's columns and rows) is its count plus one, 0 meaning
//     nil, so nil and empty survive the round trip as themselves.
//
// The decoder checks every length and count against the bytes left before
// it allocates, and rejects unknown tags and trailing bytes.
//
// The type codes start at 0x11. Codes 1–10 carried JSON metas in an earlier
// encoding; a node of either encoding refuses the other's frames as an
// unknown or unexpected type — the connection drops and the breaker counts
// the failure — instead of misreading them.
const (
	msgGet       byte = 0x11 // fetch a page from its owner; body: none
	msgGetResp   byte = 0x12 // body: the page body when found
	msgPut       byte = 0x13 // replicate a page to an owner; body: the page body
	msgPutResp   byte = 0x14
	msgInv       byte = 0x15 // apply a write invalidation; meta carries the capture
	msgInvResp   byte = 0x16
	msgFlush     byte = 0x17 // drop every cached page and result set
	msgFlushResp byte = 0x18
	msgPing      byte = 0x19 // health probe; meta carries the sender's broadcast watermark
	msgPong      byte = 0x1a
)

// maxFrame bounds a frame so a corrupt or hostile length prefix cannot make
// a peer allocate unboundedly. Cached pages are HTML; 64 MiB is generous.
const maxFrame = 64 << 20

// meta is a frame's metadata. Each message type appends its fields in a
// fixed order and decodes them in the same order.
type meta interface {
	appendTo(b []byte) []byte
	decode(d *decoder)
}

// getMeta asks for one page.
type getMeta struct {
	Key string
}

func (m *getMeta) appendTo(b []byte) []byte { return appendString(b, m.Key) }
func (m *getMeta) decode(d *decoder)        { m.Key = d.string() }

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
	b = appendBool(b, m.Found)
	b = appendString(b, m.ContentType)
	b = binary.AppendVarint(b, m.TTLNanos)
	b = appendQueries(b, m.Deps)
	return appendVector(b, m.Applied)
}

func (m *getRespMeta) decode(d *decoder) {
	m.Found = d.bool()
	m.ContentType = d.string()
	m.TTLNanos = d.varint()
	m.Deps = d.queries()
	m.Applied = d.vector()
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
	b = appendString(b, m.Key)
	b = appendString(b, m.ContentType)
	b = binary.AppendVarint(b, m.TTLNanos)
	b = appendQueries(b, m.Deps)
	return appendVector(b, m.Applied)
}

func (m *putMeta) decode(d *decoder) {
	m.Key = d.string()
	m.ContentType = d.string()
	m.TTLNanos = d.varint()
	m.Deps = d.queries()
	m.Applied = d.vector()
}

type putRespMeta struct {
	OK bool
}

func (m *putRespMeta) appendTo(b []byte) []byte { return appendBool(b, m.OK) }
func (m *putRespMeta) decode(d *decoder)        { m.OK = d.bool() }

// invMeta carries a write capture for remote invalidation. Flush is the
// dedicated msgFlush, not an empty capture. Origin/Seq sequence the
// broadcast: Seq is the origin node's monotonically increasing broadcast
// counter, and the origin serializes its broadcasts end to end, so a
// receiver that sees seq jump past last+1 provably missed a broadcast
// (it was down or partitioned) and must quarantine-flush.
type invMeta struct {
	Capture analysis.WriteCapture
	Origin  string
	Seq     uint64
}

func (m *invMeta) appendTo(b []byte) []byte {
	w := &m.Capture
	b = appendString(b, w.SQL)
	b = appendValues(b, w.Args)
	b = appendBool(b, w.Affected != nil)
	if w.Affected != nil {
		b = appendList(b, len(w.Affected.Columns), w.Affected.Columns == nil)
		for _, c := range w.Affected.Columns {
			b = appendString(b, c)
		}
		b = appendList(b, len(w.Affected.Data), w.Affected.Data == nil)
		for _, row := range w.Affected.Data {
			b = appendValues(b, row)
		}
	}
	b = binary.AppendVarint(b, w.AutoID)
	b = appendBool(b, w.HasAutoID)
	b = appendString(b, m.Origin)
	return binary.AppendUvarint(b, m.Seq)
}

func (m *invMeta) decode(d *decoder) {
	w := &m.Capture
	w.SQL = d.string()
	w.Args = d.values()
	if d.bool() {
		rows := &datasource.Rows{}
		if n, ok := d.list(); ok {
			rows.Columns = make([]string, n)
			for i := range rows.Columns {
				rows.Columns[i] = d.string()
			}
		}
		if n, ok := d.list(); ok {
			rows.Data = make([][]datasource.Value, n)
			for i := range rows.Data {
				rows.Data[i] = d.values()
			}
		}
		w.Affected = rows
	}
	w.AutoID = d.varint()
	w.HasAutoID = d.bool()
	m.Origin = d.string()
	m.Seq = d.uvarint()
}

// invRespMeta reports how many pages and result sets the peer removed.
type invRespMeta struct {
	Pages   int
	Results int
}

func (m *invRespMeta) appendTo(b []byte) []byte {
	b = binary.AppendVarint(b, int64(m.Pages))
	return binary.AppendVarint(b, int64(m.Results))
}

func (m *invRespMeta) decode(d *decoder) {
	m.Pages = int(d.varint())
	m.Results = int(d.varint())
}

// flushMeta sequences a flush broadcast exactly like invMeta sequences a
// write; a flush covers any gap by itself (the receiver drops everything).
type flushMeta struct {
	Origin string
	Seq    uint64
}

func (m *flushMeta) appendTo(b []byte) []byte {
	return binary.AppendUvarint(appendString(b, m.Origin), m.Seq)
}

func (m *flushMeta) decode(d *decoder) {
	m.Origin = d.string()
	m.Seq = d.uvarint()
}

type flushRespMeta struct {
	OK bool
}

func (m *flushRespMeta) appendTo(b []byte) []byte { return appendBool(b, m.OK) }
func (m *flushRespMeta) decode(d *decoder)        { m.OK = d.bool() }

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
	return binary.AppendUvarint(appendString(b, m.Origin), m.Seq)
}

func (m *pingMeta) decode(d *decoder) {
	m.Origin = d.string()
	m.Seq = d.uvarint()
}

// pongMeta echoes the responder's last-applied seq for the pinger's origin
// (observability only; the pinger does not act on it).
type pongMeta struct {
	OK      bool
	Applied uint64
}

func (m *pongMeta) appendTo(b []byte) []byte {
	return binary.AppendUvarint(appendBool(b, m.OK), m.Applied)
}

func (m *pongMeta) decode(d *decoder) {
	m.OK = d.bool()
	m.Applied = d.uvarint()
}

// Value tags.
const (
	tagNil byte = iota
	tagInt
	tagFloat
	tagString
)

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendList writes the count of a list that may be nil: count+1, 0 = nil.
func appendList(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

func appendValue(b []byte, v datasource.Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil)
	case int64:
		return binary.AppendVarint(append(b, tagInt), x)
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, tagFloat), math.Float64bits(x))
	case string:
		return appendString(append(b, tagString), x)
	default:
		// Unreachable for normalised values; stringify rather than drop.
		return appendString(append(b, tagString), fmt.Sprint(x))
	}
}

func appendValues(b []byte, vs []datasource.Value) []byte {
	b = appendList(b, len(vs), vs == nil)
	for _, v := range vs {
		b = appendValue(b, v)
	}
	return b
}

func appendQueries(b []byte, qs []analysis.Query) []byte {
	b = appendList(b, len(qs), qs == nil)
	for _, q := range qs {
		b = appendValues(appendString(b, q.SQL), q.Args)
	}
	return b
}

func appendVector(b []byte, v map[string]uint64) []byte {
	b = appendList(b, len(v), v == nil)
	for o, s := range v {
		b = binary.AppendUvarint(appendString(b, o), s)
	}
	return b
}

// decoder reads a meta. The first error sticks: later reads return zero
// values, and decodeMeta reports the error once the message is read.
type decoder struct {
	b   []byte
	off int
	err error
	// s is b as one string, made on the first non-empty string read;
	// decoded strings are substrings of it, so a meta costs one string
	// allocation however many strings it carries.
	s string
}

var errTruncated = errors.New("truncated")

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) left() int { return len(d.b) - d.off }

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.left() < 1 {
		d.fail(errTruncated)
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

func (d *decoder) bool() bool {
	switch c := d.byte(); c {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("bad bool byte %#x", c))
		return false
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail(errors.New("bad uvarint"))
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail(errors.New("bad varint"))
		return 0
	}
	d.off += n
	return v
}

// size checks a decoded length or count against the bytes left: every byte
// of a string and every element of a list takes at least one byte, so a
// larger value is corrupt — refused before anything is sized by it.
func (d *decoder) size(n uint64) int {
	if n > uint64(d.left()) {
		d.fail(fmt.Errorf("length %d exceeds the %d bytes left", n, d.left()))
		return 0
	}
	return int(n)
}

// list reads the count of a list that may be nil; ok=false means nil (or a
// decode error).
func (d *decoder) list() (n int, ok bool) {
	c := d.uvarint()
	if c == 0 {
		return 0, false
	}
	n = d.size(c - 1)
	return n, d.err == nil
}

func (d *decoder) string() string {
	n := d.size(d.uvarint())
	if n == 0 {
		return ""
	}
	if d.s == "" {
		d.s = string(d.b)
	}
	s := d.s[d.off : d.off+n]
	d.off += n
	return s
}

func (d *decoder) value() datasource.Value {
	switch tag := d.byte(); tag {
	case tagNil:
		return nil
	case tagInt:
		return d.varint()
	case tagFloat:
		if d.left() < 8 {
			d.fail(errTruncated)
			return nil
		}
		bits := binary.LittleEndian.Uint64(d.b[d.off:])
		d.off += 8
		return math.Float64frombits(bits)
	case tagString:
		return d.string()
	default:
		d.fail(fmt.Errorf("unknown value tag %#x", tag))
		return nil
	}
}

func (d *decoder) values() []datasource.Value {
	n, ok := d.list()
	if !ok {
		return nil
	}
	vs := make([]datasource.Value, n)
	for i := range vs {
		vs[i] = d.value()
	}
	return vs
}

func (d *decoder) queries() []analysis.Query {
	n, ok := d.list()
	if !ok {
		return nil
	}
	qs := make([]analysis.Query, n)
	for i := range qs {
		qs[i].SQL = d.string()
		qs[i].Args = d.values()
	}
	return qs
}

func (d *decoder) vector() map[string]uint64 {
	n, ok := d.list()
	if !ok {
		return nil
	}
	v := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		o := d.string()
		v[o] = d.uvarint()
	}
	return v
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
	d := decoder{b: raw}
	m.decode(&d)
	if d.err == nil && d.off != len(raw) {
		d.err = fmt.Errorf("%d trailing bytes", len(raw)-d.off)
	}
	if d.err != nil {
		return fmt.Errorf("cluster: decode type-%#x meta: %w", typ, d.err)
	}
	return nil
}
