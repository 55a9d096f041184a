package l2

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/datasource"
)

func depsFor(i int) []analysis.Query {
	return []analysis.Query{
		{SQL: "SELECT name FROM items WHERE id = ?", Args: []datasource.Value{int64(i)}},
		{SQL: "SELECT rate FROM fx WHERE pair = ? AND spot > ?", Args: []datasource.Value{"EURUSD", float64(i) + 0.5}},
		{SQL: "SELECT * FROM flags WHERE note IS NULL AND k = ?", Args: []datasource.Value{nil}},
	}
}

func bodyFor(i int) []byte {
	return []byte(fmt.Sprintf("<html>page %d — body payload with some length to it</html>", i))
}

func keyFor(i int) string { return fmt.Sprintf("/page?id=%d", i) }

// hasRecord reports whether the index holds a live record for key.
func hasRecord(s *Store, key string) bool {
	_, ok := s.Deps(key)
	return ok
}

func openTest(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, MaxBytes: maxBytes, SnapshotInterval: -1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), 0)
	defer s.Close()
	for i := 0; i < 10; i++ {
		if _, err := s.Put(keyFor(i), bodyFor(i), "text/html", depsFor(i), time.Time{}); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		rec, ok := s.Get(keyFor(i))
		if !ok {
			t.Fatalf("Get %d: miss", i)
		}
		if !bytes.Equal(rec.Body, bodyFor(i)) {
			t.Fatalf("Get %d: body %q", i, rec.Body)
		}
		if rec.ContentType != "text/html" {
			t.Fatalf("Get %d: content type %q", i, rec.ContentType)
		}
		if !reflect.DeepEqual(rec.Deps, depsFor(i)) {
			t.Fatalf("Get %d: deps %#v", i, rec.Deps)
		}
		if rec.LSN == 0 {
			t.Fatalf("Get %d: zero LSN", i)
		}
	}
	if _, ok := s.Get("/absent"); ok {
		t.Fatal("Get on absent key reported a hit")
	}
	st := s.Snapshot()
	if st.Entries != 10 || st.Hits != 10 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Bytes <= 0 || st.FileBytes < st.Bytes {
		t.Fatalf("byte accounting: %+v", st)
	}
}

func TestPutReplacesAndLSNAdvances(t *testing.T) {
	s := openTest(t, t.TempDir(), 0)
	defer s.Close()
	s.Put("k", []byte("v1"), "text/plain", nil, time.Time{})
	lsn1 := s.LSN("k")
	s.Put("k", []byte("v2"), "text/plain", nil, time.Time{})
	lsn2 := s.LSN("k")
	if lsn2 <= lsn1 {
		t.Fatalf("LSN did not advance: %d -> %d", lsn1, lsn2)
	}
	rec, ok := s.Get("k")
	if !ok || string(rec.Body) != "v2" {
		t.Fatalf("Get after replace: %q ok=%v", rec.Body, ok)
	}
	if st := s.Snapshot(); st.Entries != 1 {
		t.Fatalf("entries after replace: %+v", st)
	}
}

func TestExpiryOnGetReturnsDeps(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	s, err := Open(Options{Dir: t.TempDir(), SnapshotInterval: -1, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("k", []byte("v"), "text/plain", depsFor(7), now.Add(time.Second))
	if _, ok := s.Get("k"); !ok {
		t.Fatal("fresh record missed")
	}
	now = now.Add(2 * time.Second)
	rec, ok := s.Get("k")
	if ok {
		t.Fatal("expired record served")
	}
	if !reflect.DeepEqual(rec.Deps, depsFor(7)) {
		t.Fatalf("expired probe did not surface deps: %#v", rec.Deps)
	}
	if hasRecord(s, "k") {
		t.Fatal("expired record still indexed")
	}
	if st := s.Snapshot(); st.Expirations != 1 {
		t.Fatalf("expirations: %+v", st)
	}
}

func TestWarmRestartViaClose(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	for i := 0; i < 5; i++ {
		s.Put(keyFor(i), bodyFor(i), "text/html", depsFor(i), time.Time{})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openTest(t, dir, 0)
	defer s2.Close()
	st := s2.Snapshot()
	if st.RestoredEntries != 5 || st.Entries != 5 {
		t.Fatalf("restore: %+v", st)
	}
	if st.ColdStarts != 0 {
		t.Fatalf("unexpected cold start: %+v", st)
	}
	var ranged []string
	s2.Range(func(key string, deps []analysis.Query) {
		ranged = append(ranged, key)
		if len(deps) != 3 {
			t.Fatalf("Range deps for %s: %#v", key, deps)
		}
	})
	if len(ranged) != 5 {
		t.Fatalf("Range keys: %v", ranged)
	}
	for i := 0; i < 5; i++ {
		rec, ok := s2.Get(keyFor(i))
		if !ok || !bytes.Equal(rec.Body, bodyFor(i)) {
			t.Fatalf("restored Get %d: ok=%v body=%q", i, ok, rec.Body)
		}
	}
}

func TestWarmRestartAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	for i := 0; i < 5; i++ {
		s.Put(keyFor(i), bodyFor(i), "text/html", depsFor(i), time.Time{})
	}
	s.Abandon() // no snapshot, no journal flush — a SIGKILL
	s2 := openTest(t, dir, 0)
	defer s2.Close()
	// Segment appends go straight to the file, so a crash loses at most
	// OS-buffered bytes — in-process, everything is recovered by the scan.
	if st := s2.Snapshot(); st.RestoredEntries != 5 {
		t.Fatalf("restore after crash: %+v", st)
	}
}

func TestTombstoneDurableAfterSync(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	for i := 0; i < 4; i++ {
		s.Put(keyFor(i), bodyFor(i), "text/html", depsFor(i), time.Time{})
	}
	if deps, ok := s.Remove(keyFor(1)); !ok || len(deps) != 3 {
		t.Fatalf("Remove: ok=%v deps=%v", ok, deps)
	}
	s.Remove(keyFor(3))
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	s.Abandon()
	s2 := openTest(t, dir, 0)
	defer s2.Close()
	for _, i := range []int{1, 3} {
		if hasRecord(s2, keyFor(i)) {
			t.Fatalf("tombstoned key %d resurrected", i)
		}
	}
	for _, i := range []int{0, 2} {
		if !hasRecord(s2, keyFor(i)) {
			t.Fatalf("live key %d lost", i)
		}
	}
}

func TestFlushAllSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	for i := 0; i < 4; i++ {
		s.Put(keyFor(i), bodyFor(i), "text/html", depsFor(i), time.Time{})
	}
	dropped, err := s.FlushAll()
	if err != nil || len(dropped) != 4 {
		t.Fatalf("FlushAll: %v dropped=%d", err, len(dropped))
	}
	// New content after the flush must survive; pre-flush content must not.
	s.Put("fresh", []byte("post-flush"), "text/plain", nil, time.Time{})
	s.Abandon()
	s2 := openTest(t, dir, 0)
	defer s2.Close()
	if st := s2.Snapshot(); st.Entries != 1 {
		t.Fatalf("post-flush restore: %+v", st)
	}
	if rec, ok := s2.Get("fresh"); !ok || string(rec.Body) != "post-flush" {
		t.Fatalf("post-flush key: ok=%v body=%q", ok, rec.Body)
	}
}

func TestByteBudgetDropsOldestSegment(t *testing.T) {
	s := openTest(t, t.TempDir(), 8<<10)
	defer s.Close()
	var dropped []Dropped
	for i := 0; i < 200; i++ {
		d, err := s.Put(keyFor(i), bodyFor(i), "text/html", nil, time.Time{})
		if err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		dropped = append(dropped, d...)
	}
	st := s.Snapshot()
	if st.SegmentsDropped == 0 || len(dropped) == 0 {
		t.Fatalf("no segment drops under pressure: %+v", st)
	}
	if st.FileBytes > 8<<10+int64(s.segTarget) {
		t.Fatalf("file bytes way over budget: %+v", st)
	}
	// Dropped keys must miss; the newest keys must still hit.
	if _, ok := s.Get(dropped[0].Key); ok {
		t.Fatalf("dropped key %s still served", dropped[0].Key)
	}
	if _, ok := s.Get(keyFor(199)); !ok {
		t.Fatal("newest key lost")
	}
}

func TestOversizeRejected(t *testing.T) {
	s := openTest(t, t.TempDir(), 1<<10)
	defer s.Close()
	if _, err := s.Put("big", make([]byte, 4<<10), "text/html", nil, time.Time{}); err != ErrOversize {
		t.Fatalf("oversize Put: %v", err)
	}
}

func TestSnapshotFastBootAndJournalGC(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	for i := 0; i < 6; i++ {
		s.Put(keyFor(i), bodyFor(i), "text/html", depsFor(i), time.Time{})
	}
	s.Remove(keyFor(0))
	s.Sync()
	if err := s.WriteSnapshot(); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	// Post-snapshot activity: one more put, one more (synced) tombstone.
	s.Put(keyFor(6), bodyFor(6), "text/html", depsFor(6), time.Time{})
	s.Remove(keyFor(2))
	s.Sync()
	s.Abandon()

	// Generation 0 must be gone (absorbed by the snapshot).
	if _, err := os.Stat(filepath.Join(dir, "journal-00000000.l2j")); !os.IsNotExist(err) {
		t.Fatalf("old journal generation not deleted: %v", err)
	}
	s2 := openTest(t, dir, 0)
	defer s2.Close()
	want := map[string]bool{
		keyFor(1): true, keyFor(3): true, keyFor(4): true, keyFor(5): true, keyFor(6): true,
	}
	got := map[string]bool{}
	s2.Range(func(key string, _ []analysis.Query) { got[key] = true })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored keys: got %v want %v", got, want)
	}
	for k := range want {
		if _, ok := s2.Get(k); !ok {
			t.Fatalf("restored key %s does not serve", k)
		}
	}
}

func TestCorruptSnapshotColdStarts(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	s.Put("k", []byte("v"), "text/plain", nil, time.Time{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip bytes in the middle of the snapshot.
	path := filepath.Join(dir, "snapshot.l2s")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, 0)
	defer s2.Close()
	st := s2.Snapshot()
	if st.ColdStarts != 1 || st.Entries != 0 {
		t.Fatalf("corrupt snapshot not a cold start: %+v", st)
	}
	// The tier must be usable after the cold start.
	if _, err := s2.Put("k2", []byte("v2"), "text/plain", nil, time.Time{}); err != nil {
		t.Fatalf("Put after cold start: %v", err)
	}
}

func TestMissingSnapshotWithRotatedJournalColdStarts(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	s.Put("k", []byte("v"), "text/plain", nil, time.Time{})
	if err := s.WriteSnapshot(); err != nil {
		t.Fatal(err)
	}
	s.Abandon()
	// The snapshot vanishing while rotated generations exist means replay
	// can no longer prove tombstone coverage — must not trust the files.
	if err := os.Remove(filepath.Join(dir, "snapshot.l2s")); err != nil {
		t.Fatal(err)
	}
	s2 := openTest(t, dir, 0)
	defer s2.Close()
	if st := s2.Snapshot(); st.ColdStarts != 1 || st.Entries != 0 {
		t.Fatalf("expected cold start: %+v", st)
	}
}

func TestClusterWatermarksRestore(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	s.RecordApplied("node-a", 41)
	s.RecordApplied("node-a", 42)
	s.RecordApplied("node-b", 7)
	s.RecordBroadcast(13)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Watermarks recorded after the sync are lost by the crash — restore
	// must come out conservative (lower), never ahead.
	s.RecordApplied("node-a", 99)
	s.Abandon()
	s2 := openTest(t, dir, 0)
	defer s2.Close()
	applied, own := s2.RestoreSeqs()
	if applied["node-a"] != 42 || applied["node-b"] != 7 || own != 13 {
		t.Fatalf("restored watermarks: %v own=%d", applied, own)
	}
}

func TestCloseIdempotentAndPutAfterCloseFails(t *testing.T) {
	s := openTest(t, t.TempDir(), 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.Put("k", []byte("v"), "", nil, time.Time{}); err == nil {
		t.Fatal("Put after Close succeeded")
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("Get after Close hit")
	}
}

func TestExpiredAtBootDropped(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(5000, 0)
	clock := func() time.Time { return now }
	s, err := Open(Options{Dir: dir, SnapshotInterval: -1, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("short", []byte("v"), "text/plain", nil, now.Add(time.Second))
	s.Put("long", []byte("v"), "text/plain", nil, now.Add(time.Hour))
	s.Abandon()
	now = now.Add(time.Minute)
	s2, err := Open(Options{Dir: dir, SnapshotInterval: -1, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if hasRecord(s2, "short") {
		t.Fatal("expired record restored")
	}
	if !hasRecord(s2, "long") {
		t.Fatal("fresh record dropped")
	}
}

// TestSyncRacesRotationAndPuts: Syncs fsync outside the store mutex while
// other goroutines put, remove and rotate the journal. No Sync fails, and a
// crash after they return restores none of the keys they removed.
func TestSyncRacesRotationAndPuts(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 0)
	const workers, perWorker = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := keyFor(w*perWorker + i)
				s.Put(k, bodyFor(i), "text/html", depsFor(i), time.Time{})
				if i%2 == 0 {
					s.Remove(k)
					if err := s.Sync(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := s.WriteSnapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	s.Abandon()
	s2 := openTest(t, dir, 0)
	defer s2.Close()
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			if got := hasRecord(s2, keyFor(w*perWorker+i)); got != (i%2 == 1) {
				t.Fatalf("key %d restored=%v after a crash, want %v", w*perWorker+i, got, i%2 == 1)
			}
		}
	}
}
