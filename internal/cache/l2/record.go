// On-disk records of the L2 tier. Every byte that reaches a file — segment
// entries, journal records, snapshot sections — is the payload of one
// codec frame ([length][CRC-32C][payload]), so a reader can always tell a
// complete record from a torn or corrupted one. A payload is a type byte,
// then the record's fields in the codec encoding.
//
// A segment entry is [type][meta as a byte string][body]. Only the meta goes
// through the decoder, whose strings are slices of one copy of its input:
// the key, content type and dependency SQL are therefore never slices of a
// page body and never pin one, and the body itself is read without a copy.
//
// The type codes version the format. Codes 1–8 belonged to an earlier
// fixed-width encoding; such a record does not decode, and at boot a
// record that does not decode discards the tier (see recover.go).
package l2

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"os"

	"autowebcache/internal/analysis"
	"autowebcache/internal/codec"
)

// Record types, shared across segment files, the journal and the snapshot
// so a scanner can never mistake one for another.
const (
	recEntry     byte = 0x11 // segment files: one demoted page
	recTombstone byte = 0x12 // journal: a key removed by write invalidation
	recFlush     byte = 0x13 // journal: full-cache flush watermark
	recApplied   byte = 0x14 // journal: cluster applied-seq watermark (origin, seq)
	recOwnSeq    byte = 0x15 // journal: this node's completed-broadcast watermark
	recSnapMeta  byte = 0x16 // snapshot: store-wide metadata section
	recSnapEntry byte = 0x17 // snapshot: one live index entry
	recSnapDone  byte = 0x18 // snapshot: completeness trailer (entry count)
)

// --- segment entry -------------------------------------------------------

// segRec is a segment entry's meta: everything the cache needs to re-insert
// the page besides its body — key, content type, dependency instances and
// absolute expiry. Variants (gzip, ETag) are derived state and are never
// persisted; promotion rebuilds them under the cache's own options, exactly
// like the cluster wire contract.
type segRec struct {
	lsn       uint64
	expiresAt int64 // unix nanos; 0 = lives until invalidated
	key       string
	ct        string
	deps      []analysis.Query
}

// appendEntry appends the frame of a segment entry to dst. It encodes the
// meta into scratch and returns both buffers for reuse.
func appendEntry(dst, scratch []byte, r segRec, body []byte) (frame, meta []byte) {
	m := codec.AppendUvarint(scratch[:0], r.lsn)
	m = codec.AppendVarint(m, r.expiresAt)
	m = codec.AppendString(m, r.key)
	m = codec.AppendString(m, r.ct)
	m = codec.AppendQueries(m, r.deps)
	n := len(m)
	// The head (type, meta length) can only be written once the meta's
	// length is known: it goes after the meta in scratch and is framed
	// first.
	m = codec.AppendUvarint(append(m, recEntry), uint64(n))
	return codec.AppendFrame(dst, m[n:], m[:n], body), m
}

// decodeEntry decodes a segment entry payload. body aliases payload.
func decodeEntry(payload []byte) (r segRec, body []byte, err error) {
	d := codec.NewDecoder(payload)
	if t := d.Byte(); t != recEntry {
		return segRec{}, nil, fmt.Errorf("segment record type %#x, want %#x", t, recEntry)
	}
	m := codec.NewDecoder(d.Bytes())
	body = d.Rest()
	r = segRec{lsn: m.Uvarint(), expiresAt: m.Varint(), key: m.Str(), ct: m.Str(), deps: m.Queries()}
	if err := cmp.Or(d.Err(), m.Finish()); err != nil {
		return segRec{}, nil, fmt.Errorf("segment entry: %w", err)
	}
	return r, body, nil
}

// --- journal record ------------------------------------------------------

// journalRec is one journal record. Every type carries the same fields and
// leaves the ones it does not use zero: a tombstone sets lsn and key, a
// flush marker lsn, an applied watermark key (the origin) and seq, and the
// own-broadcast watermark seq.
type journalRec struct {
	typ      byte
	lsn, seq uint64
	key      string
}

func (r journalRec) appendTo(b []byte) []byte {
	b = codec.AppendUvarint(append(b, r.typ), r.lsn)
	return codec.AppendUvarint(codec.AppendString(b, r.key), r.seq)
}

func decodeJournal(payload []byte) (journalRec, error) {
	d := codec.NewDecoder(payload)
	r := journalRec{typ: d.Byte(), lsn: d.Uvarint(), key: d.Str(), seq: d.Uvarint()}
	if err := d.Finish(); err != nil {
		return journalRec{}, fmt.Errorf("journal record: %w", err)
	}
	if r.typ < recTombstone || r.typ > recOwnSeq {
		return journalRec{}, fmt.Errorf("journal record type %#x", r.typ)
	}
	return r, nil
}

// --- snapshot sections ---------------------------------------------------

// appendSnapshot encodes the snapshot of the index: the meta section, one
// frame per live durable entry, and the trailer counting them. The caller
// holds s.mu; newGen is the journal generation the snapshot hands over to.
func (s *Store) appendSnapshot(newGen uint64) []byte {
	p := codec.AppendUvarint(append(s.scratch[:0], recSnapMeta), s.lsn)
	p = codec.AppendUvarint(p, s.segNext)
	p = codec.AppendUvarint(p, newGen)
	p = codec.AppendUvarint(p, s.ownSeq)
	p = codec.AppendVector(p, s.applied)
	p = codec.AppendList(p, len(s.segs), false)
	for _, seg := range s.segs {
		p = codec.AppendVarint(codec.AppendUvarint(p, seg.id), seg.size)
	}
	buf := codec.AppendFrame(nil, p)
	var n uint64
	for key, r := range s.index {
		if r.volatile {
			continue // never restored; the boot would drop it anyway
		}
		n++
		p = codec.AppendString(append(p[:0], recSnapEntry), key)
		p = codec.AppendUvarint(p, r.lsn)
		p = codec.AppendUvarint(p, r.seg.id)
		p = codec.AppendVarint(p, r.off)
		p = codec.AppendVarint(p, r.size)
		p = codec.AppendVarint(p, r.expiresAt)
		p = codec.AppendQueries(p, r.deps)
		buf = codec.AppendFrame(buf, p)
	}
	s.scratch = codec.AppendUvarint(append(p[:0], recSnapDone), n)
	return codec.AppendFrame(buf, s.scratch)
}

// add decodes one snapshot section into st, requiring the meta first, then
// entries, then the trailer.
func (st *bootState) addSnapshot(payload []byte) error {
	d := codec.NewDecoder(payload)
	switch t := d.Byte(); {
	case t == recSnapMeta && !st.sawMeta:
		st.lsn, st.segNext, st.journalGen, st.ownSeq = d.Uvarint(), d.Uvarint(), d.Uvarint(), d.Uvarint()
		for o, seq := range d.Vector() {
			st.applied[o] = seq
		}
		n, _ := d.List()
		for i := 0; i < n; i++ {
			id := d.Uvarint()
			st.scanned[id] = d.Varint()
		}
		st.sawMeta = true
	case t == recSnapEntry && st.sawMeta && !st.sawDone:
		key := d.Str()
		st.cands[key] = candidate{lsn: d.Uvarint(), segID: d.Uvarint(),
			off: d.Varint(), size: d.Varint(), expiresAt: d.Varint(), deps: d.Queries()}
		st.entries++
	case t == recSnapDone && st.sawMeta && !st.sawDone:
		st.count = d.Uvarint()
		st.sawDone = true
	default:
		return fmt.Errorf("snapshot record type %#x out of order", t)
	}
	return d.Finish()
}

// --- frame scanning ------------------------------------------------------

// scanFrames walks the framed records of f starting at offset from,
// invoking fn with each complete payload and its file position. The payload
// buffer is reused between frames — fn must copy anything it keeps. It
// returns the offset one past the last complete frame and whether trailing
// bytes were discarded as a torn tail: a frame cut off by the end of the
// file or failing its checksum — the crash-mid-append shapes.
func scanFrames(f *os.File, from int64, fn func(payload []byte, off, size int64) error) (validEnd int64, torn bool, err error) {
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return from, false, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	off := from
	var payload []byte
	for {
		payload, err = codec.ReadFrame(br, payload)
		if err == io.EOF {
			return off, false, nil
		}
		if err != nil {
			return off, true, nil
		}
		size := int64(codec.FrameOverhead + len(payload))
		if err := fn(payload, off, size); err != nil {
			return off, false, err
		}
		off += size
	}
}
