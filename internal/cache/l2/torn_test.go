package l2

// Torn-write recovery: a crash can cut an append at ANY byte offset. These
// tests truncate real store files at every possible offset and reopen,
// asserting the three recovery guarantees: never panic, never serve a
// partial body, and lose only the un-fsync'd tail (acknowledged
// invalidations survive).

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// copyDir clones a store directory so each truncation starts from the same
// crashed state.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		out.Close()
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestSegmentTornAtEveryOffset(t *testing.T) {
	seed := t.TempDir()
	s := openTest(t, seed, 0)
	const n = 4
	for i := 0; i < n; i++ {
		s.Put(keyFor(i), bodyFor(i), "text/html", depsFor(i), time.Time{})
	}
	s.Abandon()
	segName := "seg-00000000.l2"
	size := fileSize(t, filepath.Join(seed, segName))
	step := int64(1)
	if testing.Short() {
		step = 7
	}
	for cut := int64(0); cut <= size; cut += step {
		dir := t.TempDir()
		copyDir(t, seed, dir)
		if err := os.Truncate(filepath.Join(dir, segName), cut); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(Options{Dir: dir, SnapshotInterval: -1})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		restored := 0
		for i := 0; i < n; i++ {
			rec, ok := s2.Get(keyFor(i))
			if !ok {
				continue
			}
			restored++
			// The cardinal rule: a restored record is bit-exact or absent.
			if !bytes.Equal(rec.Body, bodyFor(i)) {
				t.Fatalf("cut=%d: partial body for key %d: %q", cut, i, rec.Body)
			}
		}
		// Appends are sequential, so the survivors must be a prefix.
		for i := 0; i < restored; i++ {
			if !hasRecord(s2, keyFor(i)) && cut > 0 {
				t.Fatalf("cut=%d: non-prefix survivors (key %d missing, %d restored)", cut, i, restored)
			}
		}
		// The truncated store must accept new writes.
		if _, err := s2.Put("new", []byte("post-tear"), "text/plain", nil, time.Time{}); err != nil {
			t.Fatalf("cut=%d: Put after recovery: %v", cut, err)
		}
		s2.Abandon()
	}
}

func TestJournalTornAtEveryOffset(t *testing.T) {
	seed := t.TempDir()
	s := openTest(t, seed, 0)
	const n = 6
	for i := 0; i < n; i++ {
		s.Put(keyFor(i), bodyFor(i), "text/html", depsFor(i), time.Time{})
	}
	// Two acknowledged (synced) tombstones, in order: k1 then k3.
	s.Remove(keyFor(1))
	s.Remove(keyFor(3))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Abandon()
	jName := "journal-00000000.l2j"
	size := fileSize(t, filepath.Join(seed, jName))
	step := int64(1)
	if testing.Short() {
		step = 5
	}
	for cut := int64(0); cut <= size; cut += step {
		dir := t.TempDir()
		copyDir(t, seed, dir)
		if err := os.Truncate(filepath.Join(dir, jName), cut); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(Options{Dir: dir, SnapshotInterval: -1})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		// Tombstones apply in file order, so the surviving removals are a
		// prefix of [k1, k3]: k3 gone implies k1 gone.
		k1Gone := !hasRecord(s2, keyFor(1))
		k3Gone := !hasRecord(s2, keyFor(3))
		if k3Gone && !k1Gone {
			t.Fatalf("cut=%d: tombstones applied out of order", cut)
		}
		if cut == size && (!k1Gone || !k3Gone) {
			t.Fatalf("cut=%d: full journal lost an acknowledged tombstone", cut)
		}
		// Every key the store still serves must read back whole.
		for i := 0; i < n; i++ {
			if rec, ok := s2.Get(keyFor(i)); ok && !bytes.Equal(rec.Body, bodyFor(i)) {
				t.Fatalf("cut=%d: partial body for key %d", cut, i)
			}
		}
		s2.Abandon()
	}
}

func TestTornTailCountedAndTruncated(t *testing.T) {
	seed := t.TempDir()
	s := openTest(t, seed, 0)
	s.Put("k", []byte("whole body"), "text/plain", nil, time.Time{})
	s.Abandon()
	segPath := filepath.Join(seed, "seg-00000000.l2")
	size := fileSize(t, segPath)
	// Append half a record's worth of garbage — a torn tail.
	f, err := os.OpenFile(segPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(strings.Repeat("x", 13))
	f.Close()
	s2 := openTest(t, seed, 0)
	defer s2.Close()
	if st := s2.Snapshot(); st.TornTails != 1 {
		t.Fatalf("torn tail not counted: %+v", st)
	}
	if got := fileSize(t, segPath); got != size {
		t.Fatalf("torn tail not truncated: %d != %d", got, size)
	}
	if rec, ok := s2.Get("k"); !ok || string(rec.Body) != "whole body" {
		t.Fatalf("record before the tear lost: ok=%v", ok)
	}
}
