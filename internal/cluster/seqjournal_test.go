package cluster

import (
	"sync"
	"testing"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/memdb"
)

// memSeqJournal is an in-memory SeqJournal: the same monotonic contract as
// the disk tier's implementation, minus the files, so these tests pin the
// node-side protocol without binding the cluster package to a storage
// backend.
type memSeqJournal struct {
	mu      sync.Mutex
	applied map[string]uint64
	own     uint64
}

func newMemSeqJournal() *memSeqJournal {
	return &memSeqJournal{applied: make(map[string]uint64)}
}

func (j *memSeqJournal) RecordApplied(origin string, seq uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq > j.applied[origin] {
		j.applied[origin] = seq
	}
}

func (j *memSeqJournal) RecordBroadcast(seq uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq > j.own {
		j.own = seq
	}
}

func (j *memSeqJournal) RestoreSeqs() (map[string]uint64, uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]uint64, len(j.applied))
	for o, s := range j.applied {
		out[o] = s
	}
	return out, j.own
}

func (j *memSeqJournal) appliedFor(origin string) uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.applied[origin]
}

// TestSeqJournalWarmRejoin is the restart counterpart of
// TestPartitionQuarantineOnRejoin: a node that restarts with a sequence
// journal proving it missed nothing keeps its (warm) cache through the
// first peer watermark — and a journal that proves a gap still flushes.
func TestSeqJournalWarmRejoin(t *testing.T) {
	quiet := func(string, ...any) {}
	journal := newMemSeqJournal()
	_, a := bareNode(t, Config{ProbeInterval: -1, Logf: quiet,
		DialTimeout: 200 * time.Millisecond, CallTimeout: 200 * time.Millisecond})
	cb, b := bareNode(t, Config{ProbeInterval: -1, Logf: quiet, SeqJournal: journal})
	join(a, b)

	deps := []analysis.Query{{SQL: "SELECT a FROM ct0 WHERE b = ?", Args: []memdb.Value{int64(2)}}}
	cb.Insert("/doomed?x=1", []byte("pre-write"), "text/html", deps, 0)
	w := analysis.WriteCapture{Query: analysis.Query{
		SQL: "UPDATE ct0 SET a = ? WHERE b = ?", Args: []memdb.Value{int64(9), int64(2)}}}
	if err := a.BroadcastWrite(w); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if cb.Contains("/doomed?x=1") {
		t.Fatal("live invalidation not applied")
	}
	if got := journal.appliedFor(a.Addr()); got != 1 {
		t.Fatalf("applied seq not journaled: %d", got)
	}

	// Clean restart of B: the journal proves seq 1 from A was applied, so
	// A's watermark ping must NOT quarantine the (warm) post-restart cache.
	b.Close()
	cb2, b2 := bareNode(t, Config{ProbeInterval: -1, Logf: quiet, SeqJournal: journal})
	join(a, b2)
	cb2.Insert("/warm?x=2", []byte("carried over"), "text/html", deps, 0)
	a.probePeers(time.Now().Add(time.Hour))
	if !cb2.Contains("/warm?x=2") {
		t.Fatal("journaled rejoin still quarantined: warm state flushed")
	}
	if st := b2.Snapshot(); st.GapFlushes != 0 {
		t.Fatalf("spurious gap flush on journaled rejoin: %+v", st)
	}

	// Now miss a broadcast for real: B down while A writes seq 2. The
	// journal (still at 1) proves the gap, so the restarted node must
	// quarantine exactly as an unjournaled one would.
	b2.Close()
	if err := a.BroadcastWrite(w); err != nil {
		t.Fatalf("broadcast to downed peer: %v", err)
	}
	cb3, b3 := bareNode(t, Config{ProbeInterval: -1, Logf: quiet, SeqJournal: journal})
	join(a, b3)
	cb3.Insert("/stale?x=3", []byte("maybe stale"), "text/html", deps, 0)
	a.probePeers(time.Now().Add(time.Hour))
	if cb3.Contains("/stale?x=3") {
		t.Fatal("gap survived journaled restart: stale state not flushed")
	}
	if st := b3.Snapshot(); st.GapFlushes != 1 {
		t.Fatalf("gap flushes: %+v", st)
	}
	// The quarantine advanced and journaled the counter: the next probe is
	// quiet, and a restart from here would again be warm.
	a.probePeers(time.Now().Add(2 * time.Hour))
	if st := b3.Snapshot(); st.GapFlushes != 1 {
		t.Fatalf("quarantine did not settle the journal: %+v", st)
	}
	if got := journal.appliedFor(a.Addr()); got != 2 {
		t.Fatalf("post-quarantine journal counter: %d", got)
	}
}

// TestSeqJournalRestoresOwnWatermark: the node's own completed-broadcast
// watermark survives a restart, so a rejoining node never re-issues
// sequence numbers its peers have already seen (which would stall their
// duplicate filters), and its pings keep forcing gapped peers to flush.
func TestSeqJournalRestoresOwnWatermark(t *testing.T) {
	quiet := func(string, ...any) {}
	journal := newMemSeqJournal()
	_, a := bareNode(t, Config{ProbeInterval: -1, Logf: quiet, SeqJournal: journal})
	w := analysis.WriteCapture{Query: analysis.Query{
		SQL: "UPDATE ct0 SET a = ? WHERE b = ?", Args: []memdb.Value{int64(1), int64(1)}}}
	for i := 0; i < 3; i++ {
		if err := a.BroadcastWrite(w); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	_, a2 := bareNode(t, Config{ProbeInterval: -1, Logf: quiet, SeqJournal: journal})
	if got := a2.seqDone.Load(); got != 3 {
		t.Fatalf("restored own watermark %d, want 3", got)
	}
	if err := a2.BroadcastWrite(w); err != nil {
		t.Fatal(err)
	}
	if got := a2.seqDone.Load(); got != 4 {
		t.Fatalf("post-restart broadcast seq %d, want 4 (no reuse of 1..3)", got)
	}
}
