package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/datasource"
)

func TestValueRoundTrip(t *testing.T) {
	vals := []datasource.Value{nil, int64(42), int64(-7), int64(math.MinInt64), 3.25, "hello", ""}
	d := NewDecoder(AppendValues(nil, vals))
	got := d.Values()
	if err := d.Finish(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Fatalf("round trip: %#v != %#v", got, vals)
	}
	// int64 must stay int64 (datasource.Equal(int64, float64) holds, but
	// KeyOfValues keys and probe indexes depend on canonical types).
	if _, ok := got[1].(int64); !ok {
		t.Fatalf("int64 decayed to %T", got[1])
	}
}

// TestListsKeepNil: nil and empty lists, queries and vectors come back as
// themselves.
func TestListsKeepNil(t *testing.T) {
	qs := []analysis.Query{{SQL: "SELECT 1"}, {SQL: "", Args: []datasource.Value{}}}
	b := AppendValues(nil, nil)
	b = AppendValues(b, []datasource.Value{})
	b = AppendQueries(b, nil)
	b = AppendQueries(b, qs)
	b = AppendVector(b, nil)
	b = AppendVector(b, map[string]uint64{})
	b = AppendVector(b, map[string]uint64{"a": math.MaxUint64})
	b = AppendBytes(b, []byte("raw"))
	b = append(b, "rest"...)
	d := NewDecoder(b)
	if v := d.Values(); v != nil {
		t.Errorf("nil values decoded as %#v", v)
	}
	if v := d.Values(); v == nil || len(v) != 0 {
		t.Errorf("empty values decoded as %#v", v)
	}
	if q := d.Queries(); q != nil {
		t.Errorf("nil queries decoded as %#v", q)
	}
	if q := d.Queries(); !reflect.DeepEqual(q, qs) {
		t.Errorf("queries: %#v != %#v", q, qs)
	}
	if v := d.Vector(); v != nil {
		t.Errorf("nil vector decoded as %#v", v)
	}
	if v := d.Vector(); v == nil || len(v) != 0 {
		t.Errorf("empty vector decoded as %#v", v)
	}
	if v := d.Vector(); v["a"] != math.MaxUint64 || len(v) != 1 {
		t.Errorf("vector: %#v", v)
	}
	if p := d.Bytes(); string(p) != "raw" {
		t.Errorf("bytes: %q", p)
	}
	if p := d.Rest(); string(p) != "rest" {
		t.Errorf("rest: %q", p)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderRefuses: the decoder rejects trailing bytes, unknown value
// tags, bad bools and truncation, and checks every count and length against
// the bytes left before allocating — a count near 2^62 is an error, not a
// panic or an out-of-memory crash.
func TestDecoderRefuses(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	cases := []struct {
		name string
		raw  []byte
		read func(d *Decoder)
		want string
	}{
		{"trailing bytes", append(AppendString(nil, "k"), 0), func(d *Decoder) { d.Str() }, "trailing"},
		{"unknown value tag", []byte{0x7f}, func(d *Decoder) { d.Value() }, "tag"},
		{"bad bool", []byte{2}, func(d *Decoder) { d.Bool() }, "bool"},
		{"truncated string", AppendString(nil, "origin")[:3], func(d *Decoder) { d.Str() }, "exceeds"},
		{"truncated float", AppendValue(nil, 1.5)[:3], func(d *Decoder) { d.Value() }, "truncated"},
		{"empty", nil, func(d *Decoder) { d.Byte() }, "truncated"},
		{"bad uvarint", bytes.Repeat([]byte{0xff}, 11), func(d *Decoder) { d.Uvarint() }, "uvarint"},
		{"string length beyond bytes left", append(huge, 'k'), func(d *Decoder) { d.Str() }, "exceeds"},
		{"bytes length beyond bytes left", append(huge, 'k'), func(d *Decoder) { d.Bytes() }, "exceeds"},
		{"values count beyond bytes left", huge, func(d *Decoder) { d.Values() }, "exceeds"},
		{"queries count beyond bytes left", huge, func(d *Decoder) { d.Queries() }, "exceeds"},
		{"vector count beyond bytes left", huge, func(d *Decoder) { d.Vector() }, "exceeds"},
	}
	for _, c := range cases {
		d := NewDecoder(c.raw)
		c.read(d)
		if err := d.Finish(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

// TestDecodedStringsCopyInput: strings outlive the input buffer's reuse.
func TestDecodedStringsCopyInput(t *testing.T) {
	b := AppendString(nil, "key")
	d := NewDecoder(b)
	s := d.Str()
	b[1] = 'X'
	if s != "key" {
		t.Fatalf("decoded string aliases its input: %q", s)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	stream = AppendFrame(stream, []byte("head|"), []byte("body"))
	stream = AppendFrame(stream)
	stream = AppendFrame(stream, []byte("last"))
	r := bytes.NewReader(stream)
	var buf []byte
	for _, want := range []string{"head|body", "", "last"} {
		var err error
		buf, err = ReadFrame(r, buf)
		if err != nil || string(buf) != want {
			t.Fatalf("ReadFrame = %q, %v; want %q", buf, err, want)
		}
	}
	if _, err := ReadFrame(r, buf); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestReadFrameErrors pins what a reader learns from a bad frame: cut off
// anywhere is io.ErrUnexpectedEOF, a flipped payload byte is ErrChecksum,
// and a length beyond MaxFrame is refused before anything is allocated.
func TestReadFrameErrors(t *testing.T) {
	frame := AppendFrame(nil, []byte("payload"))
	for cut := 1; cut < len(frame); cut++ {
		if _, err := ReadFrame(bytes.NewReader(frame[:cut]), nil); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 1
	if _, err := ReadFrame(bytes.NewReader(bad), nil); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped byte: %v, want ErrChecksum", err)
	}
	huge := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	huge = append(huge, 0, 0, 0, 0)
	if _, err := ReadFrame(bytes.NewReader(huge), nil); err == nil || errors.Is(err, ErrChecksum) || err == io.ErrUnexpectedEOF {
		t.Fatalf("oversized frame: %v", err)
	}
}
