package cache

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/memdb"
)

// stubRemote records the cache's fan-out. Its batch method parks, once
// armed, until released.
type stubRemote struct {
	mu      sync.Mutex
	batches [][]analysis.WriteCapture
	singles []analysis.WriteCapture
	flushes int

	entered, release chan struct{}
}

func (r *stubRemote) BroadcastWrites(ws []analysis.WriteCapture) error {
	r.mu.Lock()
	r.batches = append(r.batches, ws)
	r.mu.Unlock()
	if r.entered != nil {
		close(r.entered)
		<-r.release
	}
	return nil
}

func (r *stubRemote) BroadcastWrite(w analysis.WriteCapture) error {
	r.mu.Lock()
	r.singles = append(r.singles, w)
	r.mu.Unlock()
	return nil
}

func (r *stubRemote) BroadcastFlush() error {
	r.mu.Lock()
	r.flushes++
	r.mu.Unlock()
	return nil
}

// singleRemote has no batch method.
type singleRemote struct{ r *stubRemote }

func (s singleRemote) BroadcastWrite(w analysis.WriteCapture) error { return s.r.BroadcastWrite(w) }
func (s singleRemote) BroadcastFlush() error                        { return s.r.BroadcastFlush() }

const rowDep = "SELECT a FROM T WHERE b = ?"

func rowWrite(b int64) analysis.WriteCapture {
	return wcap("UPDATE T SET a = ? WHERE b = ?", int64(0), b)
}

// insertRow tries InsertSince of /row<b>, a page depending on row b whose
// reads began at epoch0, and reports whether it was stored.
func insertRow(c *Cache, epoch0 uint64, b int64) bool {
	_, stored, _ := c.InsertSince(epoch0, fmt.Sprintf("/row%d", b), []byte("p"), "text/html",
		[]analysis.Query{dep(rowDep, b)}, 0)
	return stored
}

// TestRequestIsOneInvalidation: a request's captures are swept together and
// reach the remote as one batch broadcast. While that broadcast runs, every
// capture's event is open — an insert depending on the FIRST capture is
// refused even though its epoch was read after the sweep — and an
// unrelated insert is not. Once InvalidateWrite returns, an insert whose
// reads start later is accepted.
func TestRequestIsOneInvalidation(t *testing.T) {
	c := newTestCache(t, Options{})
	for b := int64(1); b <= 3; b++ {
		if !insertRow(c, c.Epoch(), b) {
			t.Fatalf("page of row %d not stored", b)
		}
	}
	r := &stubRemote{entered: make(chan struct{}), release: make(chan struct{})}
	c.SetRemote(r)
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := c.InvalidateWrite(rowWrite(1), rowWrite(2))
		done <- result{n, err}
	}()
	select {
	case <-r.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the broadcast never started")
	}
	if c.Contains("/row1") || c.Contains("/row2") {
		t.Fatal("the broadcast started before the sweep removed both pages")
	}
	during := c.Epoch()
	if insertRow(c, during, 1) {
		t.Error("an insert depending on the first capture was accepted while the broadcast ran")
	}
	if insertRow(c, during, 2) {
		t.Error("an insert depending on the second capture was accepted while the broadcast ran")
	}
	c.InvalidateKey("/row3")
	if !insertRow(c, during, 3) {
		t.Error("an insert unrelated to both captures was refused")
	}
	close(r.release)
	res := <-done
	if res.err != nil || res.n != 2 {
		t.Fatalf("InvalidateWrite = %d, %v; want 2, nil", res.n, res.err)
	}
	if !insertRow(c, c.Epoch(), 1) {
		t.Error("an insert whose reads began after the invalidation was refused")
	}
	if len(r.batches) != 1 || len(r.batches[0]) != 2 || len(r.singles) != 0 || r.flushes != 0 {
		t.Fatalf("fan-out: %d batches, %d singles, %d flushes; want one batch of 2",
			len(r.batches), len(r.singles), r.flushes)
	}
	if st := c.Snapshot(); st.WritesSeen != 2 {
		t.Errorf("WritesSeen = %d, want 2", st.WritesSeen)
	}
}

// TestUnanalysableCaptureFlushesOnce: when a request's first capture cannot
// be analysed, the cache flushes — every page, not just the dependent
// ones — and the flush is the one thing broadcast.
func TestUnanalysableCaptureFlushesOnce(t *testing.T) {
	c := newTestCache(t, Options{})
	for b := int64(1); b <= 3; b++ {
		insertRow(c, c.Epoch(), b)
	}
	r := &stubRemote{}
	c.SetRemote(r)
	n, err := c.InvalidateWrite(analysis.WriteCapture{}, rowWrite(1))
	if err == nil {
		t.Error("the fallback reported no cause")
	}
	if n != 3 || c.Len() != 0 {
		t.Fatalf("InvalidateWrite removed %d pages, %d left; want 3, 0", n, c.Len())
	}
	if r.flushes != 1 || len(r.batches) != 0 || len(r.singles) != 0 {
		t.Fatalf("fan-out: %d flushes, %d batches, %d singles; want exactly one flush",
			r.flushes, len(r.batches), len(r.singles))
	}
}

// TestRemoteWithoutBatchGetsEachCapture: a remote without BroadcastWrites
// gets one BroadcastWrite per capture, in capture order, after one sweep.
func TestRemoteWithoutBatchGetsEachCapture(t *testing.T) {
	c := newTestCache(t, Options{})
	insertRow(c, c.Epoch(), 1)
	r := &stubRemote{}
	c.SetRemote(singleRemote{r})
	if n, err := c.InvalidateWrite(rowWrite(2), rowWrite(1)); err != nil || n != 1 {
		t.Fatalf("InvalidateWrite = %d, %v; want 1, nil", n, err)
	}
	if len(r.singles) != 2 || len(r.batches) != 0 ||
		r.singles[0].Args[1] != memdb.Value(int64(2)) || r.singles[1].Args[1] != memdb.Value(int64(1)) {
		t.Fatalf("fan-out: singles %v, %d batches; want rows 2 then 1", r.singles, len(r.batches))
	}
	if n, err := c.InvalidateWrite(); err != nil || n != 0 || len(r.singles) != 2 {
		t.Fatalf("an empty request: %d, %v, %d broadcasts", n, err, len(r.singles))
	}
}
