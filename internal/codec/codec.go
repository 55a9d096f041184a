// Package codec is the one binary encoding for state that leaves the
// process: the peer protocol's frame metas, the L2 disk tier's records and
// the shared-file statement log all encode their values, strings, lists and
// queries here.
//
// Fields have no tags or names; each caller appends and decodes them in a
// fixed order:
//
//   - lengths, counts and unsigned integers are uvarints; signed integers
//     are zigzag varints; a bool is one byte, 0 or 1;
//   - a string (or a byte string) is its uvarint length, then its bytes;
//   - a value is a tag byte, then nothing (nil), a zigzag varint (int64),
//     8 little-endian IEEE-754 bytes (float64) or a string;
//   - a list or map that may be nil is its count plus one, 0 meaning nil,
//     so nil and empty survive the round trip as themselves.
//
// The Decoder checks every length and count against the bytes left before
// it allocates, and rejects unknown tags and, in Finish, trailing bytes.
//
// Records stored in files travel in a length+CRC frame (AppendFrame,
// ReadFrame), so a reader tells a complete record from a torn or corrupted
// one.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"autowebcache/internal/analysis"
	"autowebcache/internal/datasource"
)

// Value tags.
const (
	tagNil byte = iota
	tagInt
	tagFloat
	tagString
)

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendUvarint appends an unsigned integer.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends a signed integer.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBytes appends a length-prefixed byte string; Decoder.Bytes reads it.
func AppendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

// AppendList appends the count of a list that may be nil: count+1, 0 = nil.
// The caller appends the elements.
func AppendList(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

// AppendValue appends one normalised value (nil, int64, float64, string).
func AppendValue(b []byte, v datasource.Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil)
	case int64:
		return binary.AppendVarint(append(b, tagInt), x)
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, tagFloat), math.Float64bits(x))
	case string:
		return AppendString(append(b, tagString), x)
	default:
		// Unreachable for normalised values; stringify rather than drop.
		return AppendString(append(b, tagString), fmt.Sprint(x))
	}
}

// AppendValues appends a value list that may be nil.
func AppendValues(b []byte, vs []datasource.Value) []byte {
	b = AppendList(b, len(vs), vs == nil)
	for _, v := range vs {
		b = AppendValue(b, v)
	}
	return b
}

// AppendQueries appends a query list that may be nil: each query is its
// SQL, then its argument values.
func AppendQueries(b []byte, qs []analysis.Query) []byte {
	b = AppendList(b, len(qs), qs == nil)
	for _, q := range qs {
		b = AppendValues(AppendString(b, q.SQL), q.Args)
	}
	return b
}

// AppendVector appends a string-to-counter map that may be nil, in map
// order.
func AppendVector(b []byte, v map[string]uint64) []byte {
	b = AppendList(b, len(v), v == nil)
	for o, s := range v {
		b = binary.AppendUvarint(AppendString(b, o), s)
	}
	return b
}

// Decoder reads fields in the order they were appended. The first error
// sticks: later reads return zero values, and Err or Finish reports it once
// the caller has read everything.
type Decoder struct {
	b   []byte
	off int
	err error
	// s is b as one string, made on the first non-empty string read;
	// decoded strings are substrings of it, so a decode costs one string
	// allocation however many strings it carries — and every decoded string
	// keeps all of b alive. Decode only what the strings may pin.
	s string
}

var errTruncated = errors.New("truncated")

// NewDecoder returns a decoder over b. Strings it decodes are copies; byte
// strings (Bytes, Rest) alias b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err reports the first decode error.
func (d *Decoder) Err() error { return d.err }

// Finish reports the first decode error, or an error when bytes are left
// unread.
func (d *Decoder) Finish() error {
	if d.err == nil && d.off != len(d.b) {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) left() int { return len(d.b) - d.off }

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
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

// Bool reads a bool, refusing any byte but 0 and 1.
func (d *Decoder) Bool() bool {
	switch c := d.Byte(); c {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("bad bool byte %#x", c))
		return false
	}
}

// Uvarint reads an unsigned integer.
func (d *Decoder) Uvarint() uint64 {
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

// Varint reads a signed integer.
func (d *Decoder) Varint() int64 {
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
func (d *Decoder) size(n uint64) int {
	if n > uint64(d.left()) {
		d.fail(fmt.Errorf("length %d exceeds the %d bytes left", n, d.left()))
		return 0
	}
	return int(n)
}

// List reads the count of a list that may be nil; ok=false means nil (or a
// decode error). The count is checked against the bytes left.
func (d *Decoder) List() (n int, ok bool) {
	c := d.Uvarint()
	if c == 0 {
		return 0, false
	}
	n = d.size(c - 1)
	return n, d.err == nil
}

// Str reads a string. (Str, not String: a Decoder is not a fmt.Stringer.)
func (d *Decoder) Str() string {
	n := d.size(d.Uvarint())
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

// Bytes reads a byte string. It aliases the decoder's input.
func (d *Decoder) Bytes() []byte {
	n := d.size(d.Uvarint())
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// Rest reads every byte left. It aliases the decoder's input.
func (d *Decoder) Rest() []byte {
	if d.err != nil {
		return nil
	}
	p := d.b[d.off:]
	d.off = len(d.b)
	return p
}

// Value reads one value.
func (d *Decoder) Value() datasource.Value {
	switch tag := d.Byte(); tag {
	case tagNil:
		return nil
	case tagInt:
		return d.Varint()
	case tagFloat:
		if d.left() < 8 {
			d.fail(errTruncated)
			return nil
		}
		bits := binary.LittleEndian.Uint64(d.b[d.off:])
		d.off += 8
		return math.Float64frombits(bits)
	case tagString:
		return d.Str()
	default:
		d.fail(fmt.Errorf("unknown value tag %#x", tag))
		return nil
	}
}

// Values reads a value list that may be nil.
func (d *Decoder) Values() []datasource.Value {
	n, ok := d.List()
	if !ok {
		return nil
	}
	vs := make([]datasource.Value, n)
	for i := range vs {
		vs[i] = d.Value()
	}
	return vs
}

// Queries reads a query list that may be nil.
func (d *Decoder) Queries() []analysis.Query {
	n, ok := d.List()
	if !ok {
		return nil
	}
	qs := make([]analysis.Query, n)
	for i := range qs {
		qs[i].SQL = d.Str()
		qs[i].Args = d.Values()
	}
	return qs
}

// Vector reads a string-to-counter map that may be nil.
func (d *Decoder) Vector() map[string]uint64 {
	n, ok := d.List()
	if !ok {
		return nil
	}
	v := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		o := d.Str()
		v[o] = d.Uvarint()
	}
	return v
}

// The file frame:
//
//	[4B payload length][4B CRC-32C of payload][payload]
//
// big-endian. A crash mid-append leaves a frame whose length, payload or
// checksum does not add up, so a reader never mistakes a torn record for a
// complete one.
const (
	// FrameOverhead is the framing cost per record: length + CRC.
	FrameOverhead = 8
	// MaxFrame bounds one payload so a corrupted length prefix cannot make
	// a reader allocate unboundedly. Cached pages are HTML; 64 MiB is
	// generous.
	MaxFrame = 64 << 20
)

// ErrChecksum reports a whole frame whose payload does not match its CRC.
var ErrChecksum = errors.New("codec: frame checksum mismatch")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one frame whose payload is the concatenation of
// parts, so a caller can frame a head and a body without joining them
// first.
func AppendFrame(dst []byte, parts ...[]byte) []byte {
	n, sum := 0, uint32(0)
	for _, p := range parts {
		n += len(p)
		sum = crc32.Update(sum, castagnoli, p)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(n))
	dst = binary.BigEndian.AppendUint32(dst, sum)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// ReadFrame reads the next frame from r and returns its payload, read into
// buf's storage when it fits. It returns io.EOF when r ends before the
// frame starts, io.ErrUnexpectedEOF when r ends inside it, ErrChecksum when
// the frame is whole but its payload fails the checksum, and an error for
// a length beyond MaxFrame.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [FrameOverhead]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf[:0], err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > MaxFrame {
		return buf[:0], fmt.Errorf("codec: frame length %d exceeds %d", n, MaxFrame)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf[:0], err
	}
	if crc32.Checksum(buf, castagnoli) != binary.BigEndian.Uint32(hdr[4:8]) {
		return buf, ErrChecksum
	}
	return buf, nil
}
