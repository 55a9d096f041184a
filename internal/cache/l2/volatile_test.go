package l2

// Volatile records (PutVolatile): served like any record, never restored
// by a boot — after a crash or a clean Close — and removed without a
// tombstone unless they superseded a durable record of the key.

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// TestVolatileServedWithTrueExpiry: Get serves a volatile record with the
// expiry it was written with, not the lapsed one on disk.
func TestVolatileServedWithTrueExpiry(t *testing.T) {
	s := openTest(t, t.TempDir(), 0)
	defer s.Close()
	exp := time.Now().Add(time.Hour).Truncate(time.Microsecond)
	if _, err := s.PutVolatile(keyFor(1), bodyFor(1), "text/html", depsFor(1), exp); err != nil {
		t.Fatal(err)
	}
	rec, ok := s.Get(keyFor(1))
	if !ok || !bytes.Equal(rec.Body, bodyFor(1)) || !rec.Volatile || !rec.ExpiresAt.Equal(exp) {
		t.Fatalf("Get = %+v, %v; want the body, volatile, expiry %v", rec, ok, exp)
	}
	s.Put(keyFor(2), bodyFor(2), "text/html", nil, time.Time{})
	if rec, _ := s.Get(keyFor(2)); rec.Volatile {
		t.Fatal("durable record reported volatile")
	}
}

// putMixed writes durable keys 0 and 1, volatile key 2, and key 3 durable
// then volatile (the volatile record is the key's newest).
func putMixed(t *testing.T, s *Store) {
	t.Helper()
	for _, i := range []int{0, 1, 3} {
		s.Put(keyFor(i), bodyFor(i), "text/html", depsFor(i), time.Time{})
	}
	for _, i := range []int{2, 3} {
		if _, err := s.PutVolatile(keyFor(i), bodyFor(i), "text/html", depsFor(i), time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
}

// wantRestored checks a boot restored exactly the durable keys 0 and 1.
func wantRestored(t *testing.T, s *Store) {
	t.Helper()
	if st := s.Snapshot(); st.ColdStarts != 0 || st.RestoredEntries != 2 || st.Expirations != 0 {
		t.Fatalf("boot: %+v; want keys 0 and 1 restored, warm", st)
	}
	for i, want := range []bool{true, true, false, false} {
		if hasRecord(s, keyFor(i)) != want {
			t.Fatalf("key %d restored=%v, want %v", i, !want, want)
		}
	}
}

func TestVolatileNeverRestoredAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	putMixed(t, s)
	s.Abandon()
	s2 := openTest(t, dir, 0)
	defer s2.Close()
	wantRestored(t, s2)
}

func TestVolatileNeverRestoredAfterClose(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	putMixed(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, 0)
	defer s2.Close()
	wantRestored(t, s2)
}

// TestSnapshotWithVolatileBootsWarm: a snapshot taken while volatile
// entries exist writes only the durable ones, so its trailer count matches
// and the next boot trusts it.
func TestSnapshotWithVolatileBootsWarm(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	putMixed(t, s)
	if err := s.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	s.Abandon()
	s2 := openTest(t, dir, 0)
	defer s2.Close()
	wantRestored(t, s2)
}

// TestVolatileRemoveJournalsNoTombstone: removing a volatile record costs
// the journal nothing. A volatile record that supersedes a durable one
// journals the durable one's tombstone as it is written, so that page stays
// dead across a crash that loses the volatile appends, once a Sync has run.
func TestVolatileRemoveJournalsNoTombstone(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	putMixed(t, s)
	s.mu.Lock()
	first := s.index[keyFor(2)] // the first volatile append
	seg, off := s.segPath(first.seg.id), first.off
	s.mu.Unlock()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := s.Snapshot(); st.JournalSyncs != 1 {
		t.Fatalf("the durable record key 3's volatile one superseded got no tombstone: %+v", st)
	}
	for _, i := range []int{2, 3} {
		if _, ok := s.Remove(keyFor(i)); !ok {
			t.Fatalf("volatile record %d not removed", i)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := s.Snapshot(); st.JournalSyncs != 1 {
		t.Fatalf("removing volatile records fsync'd the journal: %+v", st)
	}
	s.Abandon()
	if err := os.Truncate(seg, off); err != nil { // the volatile appends never reached the disk
		t.Fatal(err)
	}
	s2 := openTest(t, dir, 0)
	defer s2.Close()
	wantRestored(t, s2)
}
