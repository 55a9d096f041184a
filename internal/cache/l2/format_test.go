package l2

// The record format and the one boot rule: a complete, checksum-valid frame
// that does not decode discards the tier.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"autowebcache/internal/codec"
)

func appendToFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// TestUndecodableTombstoneColdStarts: a checksum-valid tombstone that does
// not decode cannot be skipped — the key it names would come back — so
// boot discards the tier.
func TestUndecodableTombstoneColdStarts(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	s.Put(keyFor(1), bodyFor(1), "text/html", depsFor(1), time.Time{})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Abandon()
	// A tombstone for the key at a newer LSN, its last field missing.
	tomb := codec.AppendString(codec.AppendUvarint([]byte{recTombstone}, 1000), keyFor(1))
	appendToFile(t, filepath.Join(dir, "journal-00000000.l2j"), codec.AppendFrame(nil, tomb))

	s2 := openTest(t, dir, 0)
	defer s2.Close()
	if st := s2.Snapshot(); st.ColdStarts != 1 || st.Entries != 0 {
		t.Fatalf("undecodable tombstone: %+v, want a cold start", st)
	}
	if _, ok := s2.Get(keyFor(1)); ok {
		t.Fatal("the key an undecodable tombstone names was served")
	}
}

// parentFrame frames a payload the way the earlier fixed-width encoding
// did: the frame itself is unchanged.
func parentFrame(payload []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.BigEndian.AppendUint32(b, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(b, payload...)
}

func parentStr(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(s))), s...)
}

// TestParentFormatDirectoryColdStarts: a directory written by the earlier
// fixed-width encoding — type codes 1 (entry) and 2 (tombstone) — starts
// cold once instead of being misread.
func TestParentFormatDirectoryColdStarts(t *testing.T) {
	dir := t.TempDir()
	entry := binary.BigEndian.AppendUint64([]byte{1}, 1) // type, lsn
	entry = binary.BigEndian.AppendUint64(entry, 0)      // expiresAt
	entry = parentStr(entry, "/old")
	entry = parentStr(entry, "text/html")
	entry = binary.BigEndian.AppendUint32(entry, 0) // no deps
	entry = parentStr(entry, "<p>old</p>")
	tomb := binary.BigEndian.AppendUint64([]byte{2}, 2) // type, lsn
	tomb = parentStr(binary.BigEndian.AppendUint32(tomb, 1), "/gone")
	if err := os.WriteFile(filepath.Join(dir, "seg-00000000.l2"), parentFrame(entry), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal-00000000.l2j"), parentFrame(tomb), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, 0)
	defer s.Close()
	if st := s.Snapshot(); st.ColdStarts != 1 || st.Entries != 0 || st.TornTails != 0 {
		t.Fatalf("parent-format directory: %+v, want one cold start", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-00000000.l2")); !os.IsNotExist(err) {
		t.Fatalf("parent-format segment kept: %v", err)
	}
	if _, err := s.Put("/new", []byte("v"), "text/plain", nil, time.Time{}); err != nil {
		t.Fatalf("Put after the cold start: %v", err)
	}
}

// TestEntryMetaNeverPinsBody: a segment entry's decoded strings come from
// a copy of its meta alone, and its body is the payload's own tail.
func TestEntryMetaNeverPinsBody(t *testing.T) {
	body := bytes.Repeat([]byte("b"), 4096)
	frame, _ := appendEntry(nil, nil, segRec{lsn: 7, key: "/k", ct: "text/html", deps: depsFor(1)}, body)
	payload, err := codec.ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, got, err := decodeEntry(payload)
	if err != nil || !bytes.Equal(got, body) || rec.key != "/k" || !reflect.DeepEqual(rec.deps, depsFor(1)) {
		t.Fatalf("decode: %+v body=%d bytes err=%v", rec, len(got), err)
	}
	if &got[0] != &payload[len(payload)-len(body)] {
		t.Fatal("the decoded body is a copy, not the payload's tail")
	}
	// TotalAlloc is process-wide: another goroutine allocating inside the
	// window only adds bytes, so the smallest delta over several decodes
	// bounds the decode's own.
	least := uint64(math.MaxUint64)
	for i := 0; i < 10; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _ = decodeEntry(payload)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= uint64(len(body)) {
		t.Fatalf("decoding a %d-byte body allocated %d bytes: the body was copied", len(body), least)
	}
}

// seedPayloads holds one real payload of every record type.
func seedPayloads(t testing.TB) [][]byte {
	t.Helper()
	s, err := Open(Options{Dir: t.TempDir(), SnapshotInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Abandon()
	s.Put(keyFor(1), bodyFor(1), "text/html", depsFor(1), time.Unix(9e9, 0))
	s.Put(keyFor(2), bodyFor(2), "text/html", nil, time.Time{})
	s.PutVolatile(keyFor(3), bodyFor(3), "text/html", depsFor(3), time.Time{})
	s.RecordApplied("10.0.0.1:9091", 17)
	entry, _ := appendEntry(nil, nil, segRec{lsn: 1, key: keyFor(1), ct: "text/html", deps: depsFor(1)}, bodyFor(1))
	volatile, _ := appendEntry(nil, nil, segRec{lsn: 3, expiresAt: volatileExpiry, key: keyFor(3), ct: "text/html", deps: depsFor(3)}, bodyFor(3))
	stream := append(append(entry, volatile...), s.journalBuf...)
	for _, r := range []journalRec{{typ: recTombstone, lsn: 3, key: keyFor(2)}, {typ: recFlush, lsn: 4}, {typ: recOwnSeq, seq: 5}} {
		stream = codec.AppendFrame(stream, r.appendTo(nil))
	}
	s.mu.Lock()
	stream = append(stream, s.appendSnapshot(1)...)
	s.mu.Unlock()
	var out [][]byte
	for r := bytes.NewReader(stream); r.Len() > 0; {
		p, err := codec.ReadFrame(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// FuzzDecodeRecord feeds arbitrary payloads to every record decoder:
// segment entries, journal records and snapshot sections (alone and after
// a valid snapshot meta). A decode never panics, and never allocates from a
// count larger than the bytes left: what it allocates stays within a small
// multiple of its input.
func FuzzDecodeRecord(f *testing.F) {
	seeds := seedPayloads(f)
	var snapMeta []byte
	for _, p := range seeds {
		f.Add(p)
		if p[0] == recSnapMeta {
			snapMeta = p
		}
	}
	if snapMeta == nil {
		f.Fatal("no snapshot meta among the seeds")
	}
	f.Add([]byte{recEntry, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(codec.AppendUvarint([]byte{recSnapEntry, 0}, 1<<62))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decodeEntry(data)
		decodeJournal(data)
		newBootState().addSnapshot(data)
		st := newBootState()
		if err := st.addSnapshot(snapMeta); err != nil {
			t.Fatal(err)
		}
		st.addSnapshot(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 64*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
	})
}
