// Package l2 is the disk tier under the in-memory page cache: a
// length-prefixed, CRC-framed log of demoted pages in segment files, an
// in-memory index over them, and an append-only invalidation journal that
// makes the paper's §3.2 consistency contract survive a restart.
//
// Layout inside the store directory:
//
//	seg-00000042.l2      segment files: recEntry records (demoted pages)
//	journal-00000007.l2j invalidation journal generation: tombstone, flush,
//	                     and cluster-watermark records
//	snapshot.l2s         periodic index snapshot (written via tmp+rename)
//
// Every file is a sequence of codec frames, each holding one typed record
// (record.go). At boot a frame cut off or failing its checksum is a torn
// tail and is truncated; a complete frame whose record does not decode
// discards the tier (recover.go).
//
// Durability contract: tombstones and flush markers are fsync'd before the
// invalidating write returns (Sync / FlushAll), so an acknowledged
// invalidation can never resurrect after a crash. Demoted page bodies are
// written without fsync — losing an unsynced demotion costs a cache miss,
// never staleness. A volatile record (PutVolatile: a page the memory tier's
// admission refused, spilled here instead of dropped) is never restored by
// any boot, after a crash or a clean Close: its on-disk expiry is written
// as already lapsed, so boot drops it even as a key's newest record, and the
// snapshot skips it. Removing one therefore journals no tombstone, and a
// sweep that removed only volatile records has nothing to fsync. A volatile
// record that supersedes a durable one journals the durable one's tombstone
// as it is written, so a crash that loses the volatile append cannot bring
// the older page back once any later Sync has run.
//
// Cluster watermarks (applied vector, own broadcast seq) ride the journal
// unsynced *after* the tombstones they describe; because a torn tail is
// truncated at the first bad frame, a restored watermark can never claim
// more than the durable tombstones prove, and a lost watermark only makes
// the rejoin conservatively cold (gap ⇒ quarantine flush).
//
// Locking: one mutex guards index, segments, journal and watermarks. The
// page cache calls Put/Remove/Deps/LSN while holding one of its page
// shard locks; the store never calls back into the cache, so the only lock
// order is shard → store. Sync's fsync runs outside that mutex, under a
// second one that only Sync, journal rotation and Close take (before the
// first), so a Put waiting on the disk never holds a shard lock for an
// fsync's duration.
package l2

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/codec"
)

// Default knobs. segTargetDivisor splits the byte budget into enough
// segments that dropping the oldest reclaims a modest slice, not half the
// tier.
const (
	defaultSegTarget   = 8 << 20
	segTargetDivisor   = 16
	defaultSnapshotInt = time.Minute
)

var errClosed = errors.New("l2: store is closed")

// ErrOversize reports a page too large for the configured byte budget; the
// caller should fall back to plain eviction.
var ErrOversize = errors.New("l2: record exceeds store byte budget")

// Options configures Open.
type Options struct {
	// Dir is the store directory; created if absent.
	Dir string
	// MaxBytes bounds the total size of segment files; 0 means unbounded.
	// When the budget is exceeded the oldest sealed segment is dropped
	// whole and its still-live keys are reported to the caller.
	MaxBytes int64
	// SnapshotInterval is the cadence of background index snapshots.
	// 0 means the default (one minute); negative disables the background
	// loop (snapshots then happen only at Close).
	SnapshotInterval time.Duration
	// Clock supplies time for expiry decisions; nil means time.Now.
	Clock func() time.Time
	// Logf, when set, receives recovery diagnostics (torn tails, cold
	// starts). nil discards them.
	Logf func(format string, args ...any)
}

// Record is one page handed back by Get: everything the cache needs to
// serve and re-admit it. Body and Deps are private copies owned by the
// caller.
type Record struct {
	Body        []byte
	ContentType string
	Deps        []analysis.Query
	ExpiresAt   time.Time // zero when the page lives until invalidated
	LSN         uint64
	// Volatile marks a record written by PutVolatile: no boot restores it.
	Volatile bool
}

// Dropped identifies a key evicted from the disk tier as a side effect
// (oldest-segment drop under byte pressure, or an expired/corrupt record
// discarded by Get). The cache uses Deps to unlink the key from its
// dependency table when the key is resident in neither tier.
type Dropped struct {
	Key  string
	Deps []analysis.Query
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	Entries   int64 // live keys in the index
	Bytes     int64 // framed record bytes of live entries
	FileBytes int64 // total segment file bytes on disk (incl. dead records)

	Hits            uint64 // Get found a live record
	Misses          uint64 // Get found nothing (or a corrupt record)
	Expirations     uint64 // records discarded on expiry (Get or boot)
	Puts            uint64 // records appended: durable demotions and volatile spills
	Removes         uint64 // keys removed by invalidation (tombstoned unless volatile)
	Flushes         uint64 // FlushAll calls
	SegmentsDropped uint64 // sealed segments dropped for the byte budget
	DroppedRecords  uint64 // live keys lost to segment drops
	JournalSyncs    uint64 // fsyncs of the invalidation journal
	TornTails       uint64 // torn tails truncated during recovery
	RestoredEntries uint64 // live keys restored by the last boot
	Snapshots       uint64 // index snapshots written
	ColdStarts      uint64 // boots that had to discard the tier
}

// segment is one on-disk log file. r serves concurrent preads for Gets and
// stays open until the segment is dropped; w is the append handle and is
// closed when the segment seals.
type segment struct {
	id   uint64
	r    *os.File
	w    *os.File // nil once sealed
	size int64
}

// irec is one in-memory index entry: where the newest live record for a key
// sits on disk, plus the metadata needed without touching the disk —
// expiry, LSN for demotion dedup, and the dependency instances so segment
// drops and expiry can unlink the key from the cache's dependency table.
type irec struct {
	lsn       uint64
	seg       *segment
	off       int64
	size      int64
	expiresAt int64 // the true expiry, also for a volatile record
	deps      []analysis.Query
	volatile  bool // written by PutVolatile
}

// Store is the disk tier. All methods are safe for concurrent use.
type Store struct {
	dir       string
	maxBytes  int64
	segTarget int64
	clock     func() time.Time
	logf      func(string, ...any)

	mu       sync.Mutex
	closed   bool
	index    map[string]*irec
	segs     []*segment // ascending id; last is the active append target
	segNext  uint64
	lsn      uint64 // last assigned LSN
	scratch  []byte // reused payload-encoding buffer
	framebuf []byte // reused frame-encoding buffer

	journal    *os.File
	journalGen uint64
	journalBuf []byte // framed journal records not yet written to the file
	// written counts journal writes to the file; synced is the count the
	// last completed fsync covered. Both only grow, across rotations (a
	// rotation syncs first).
	written, synced uint64
	// syncMu serialises the journal fsyncs Sync runs outside mu, and keeps
	// a rotation or Close from closing the file under one. Lock order:
	// syncMu, then mu.
	syncMu sync.Mutex

	applied map[string]uint64 // cluster origin → applied seq watermark
	ownSeq  uint64            // own completed-broadcast watermark

	liveBytes int64
	fileBytes int64

	snapStop chan struct{}
	snapDone chan struct{}

	hits, misses, expirations  atomic.Uint64
	puts, removes, flushes     atomic.Uint64
	segsDropped, droppedRecs   atomic.Uint64
	journalSyncs, tornTails    atomic.Uint64
	restored, snaps, coldBoots atomic.Uint64
}

// Open opens (or creates) a store in opts.Dir, replaying any snapshot,
// segments and journal generations found there. See recover.go for the
// boot sequence.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("l2: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("l2: create dir: %w", err)
	}
	s := &Store{
		dir:      opts.Dir,
		maxBytes: opts.MaxBytes,
		clock:    opts.Clock,
		logf:     opts.Logf,
		index:    make(map[string]*irec),
		applied:  make(map[string]uint64),
	}
	if s.clock == nil {
		s.clock = time.Now
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	s.segTarget = defaultSegTarget
	if opts.MaxBytes > 0 {
		if t := opts.MaxBytes / segTargetDivisor; t > 0 && t < s.segTarget {
			s.segTarget = t
		}
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	interval := opts.SnapshotInterval
	if interval == 0 {
		interval = defaultSnapshotInt
	}
	if interval > 0 {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop(interval, s.snapStop)
	}
	return s, nil
}

// snapshotLoop takes the stop channel as a parameter: Close nils the field
// before closing the channel, so re-reading s.snapStop here would block a
// select on a nil channel forever.
func (s *Store) snapshotLoop(interval time.Duration, stop <-chan struct{}) {
	defer close(s.snapDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if err := s.WriteSnapshot(); err != nil && !errors.Is(err, errClosed) {
				s.logf("l2: snapshot failed: %v", err)
			}
		}
	}
}

// --- read path -----------------------------------------------------------

// Get probes the tier for key. On a live record it returns (rec, true). On
// a miss it returns (Record{}, false). When the probe itself retires a
// resident record — expired TTL, or a record that no longer reads back
// (dropped segment racing the probe, disk corruption) — it returns
// (Record{Deps: deps}, false): the body is never served, and the caller
// owns unlinking the key's dependency instances if the key is resident in
// neither tier.
func (s *Store) Get(key string) (Record, bool) {
	s.mu.Lock()
	r, ok := s.index[key]
	if !ok || s.closed {
		s.mu.Unlock()
		s.misses.Add(1)
		return Record{}, false
	}
	if r.expiresAt != 0 && !s.clock().Before(time.Unix(0, r.expiresAt)) {
		s.dropIndexLocked(key, r)
		s.mu.Unlock()
		s.expirations.Add(1)
		s.misses.Add(1)
		return Record{Deps: r.deps}, false
	}
	seg, off, size, lsn, exp, volatile := r.seg, r.off, r.size, r.lsn, r.expiresAt, r.volatile
	s.mu.Unlock()

	buf := make([]byte, size)
	if _, err := seg.r.ReadAt(buf, off); err != nil {
		return s.discardUnreadable(key, lsn, err)
	}
	// buf holds the whole frame: ReadFrame checks it and leaves the payload
	// where it is, and the body handed out is that payload's tail.
	payload, err := codec.ReadFrame(bytes.NewReader(buf), buf[codec.FrameOverhead:])
	if err != nil {
		return s.discardUnreadable(key, lsn, err)
	}
	rec, body, err := decodeEntry(payload)
	if err == nil && rec.key != key {
		err = fmt.Errorf("record holds key %q", rec.key)
	}
	if err != nil {
		return s.discardUnreadable(key, lsn, err)
	}
	s.hits.Add(1)
	// The expiry comes from the index: a volatile record's on-disk one is
	// the lapsed marker.
	out := Record{Body: body, ContentType: rec.ct, Deps: rec.deps, LSN: lsn, Volatile: volatile}
	if exp != 0 {
		out.ExpiresAt = time.Unix(0, exp)
	}
	return out, true
}

// discardUnreadable retires an index entry whose on-disk record failed to
// read back. A partial body is never served; the entry's deps are surfaced
// for unlinking.
func (s *Store) discardUnreadable(key string, lsn uint64, cause error) (Record, bool) {
	s.misses.Add(1)
	s.mu.Lock()
	r, ok := s.index[key]
	if ok && r.lsn == lsn { // unchanged since the probe began
		s.dropIndexLocked(key, r)
		s.mu.Unlock()
		s.logf("l2: discarded unreadable record for %q: %v", key, cause)
		return Record{Deps: r.deps}, false
	}
	s.mu.Unlock()
	return Record{}, false
}

// Deps returns the dependency instances of key's live record, and whether
// the index holds one.
func (s *Store) Deps(key string) ([]analysis.Query, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.index[key]
	if !ok {
		return nil, false
	}
	return r.deps, true
}

// LSN returns the index LSN for key, or 0 when absent. The cache uses it to
// skip re-appending a promoted entry whose disk record is still current.
func (s *Store) LSN(key string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.index[key]; ok {
		return r.lsn
	}
	return 0
}

// Range calls fn for every live key with its dependency instances, in key
// order; used at boot to rebuild the cache's dependency table. fn must not
// call back into the store.
func (s *Store) Range(fn func(key string, deps []analysis.Query)) {
	s.mu.Lock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	deps := make([][]analysis.Query, len(keys))
	for i, k := range keys {
		deps[i] = s.index[k].deps
	}
	s.mu.Unlock()
	for i, k := range keys {
		fn(k, deps[i])
	}
}

// --- write path ----------------------------------------------------------

// Put appends a demoted page and indexes it, returning any keys the byte
// budget pushed out of the tier (oldest segment dropped whole). The append
// is buffered by the OS but not fsync'd: losing it in a crash costs a
// miss, never staleness. Returns ErrOversize when the record alone would
// bust the budget.
func (s *Store) Put(key string, body []byte, contentType string, deps []analysis.Query, expiresAt time.Time) ([]Dropped, error) {
	return s.put(key, body, contentType, deps, expiresAt, false)
}

// PutVolatile is Put for a record no boot restores: Get serves it like any
// other until it is removed, superseded or expires, and removing it costs
// no journal write. Superseding a durable record of the key journals that
// record's tombstone (see the package doc).
func (s *Store) PutVolatile(key string, body []byte, contentType string, deps []analysis.Query, expiresAt time.Time) ([]Dropped, error) {
	return s.put(key, body, contentType, deps, expiresAt, true)
}

// volatileExpiry is the on-disk expiry of a volatile record: one nanosecond
// after the Unix epoch, lapsed for every boot.
const volatileExpiry int64 = 1

func (s *Store) put(key string, body []byte, contentType string, deps []analysis.Query, expiresAt time.Time, volatile bool) ([]Dropped, error) {
	var exp int64
	if !expiresAt.IsZero() {
		exp = expiresAt.UnixNano()
	}
	diskExp := exp
	if volatile {
		diskExp = volatileExpiry
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errClosed
	}
	lsn := s.lsn + 1
	s.framebuf, s.scratch = appendEntry(s.framebuf[:0], s.scratch,
		segRec{lsn: lsn, expiresAt: diskExp, key: key, ct: contentType, deps: deps}, body)
	size := int64(len(s.framebuf))
	if size > codec.FrameOverhead+codec.MaxFrame || (s.maxBytes > 0 && size > s.maxBytes) {
		s.mu.Unlock()
		return nil, ErrOversize
	}
	seg, err := s.activeLocked()
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	off := seg.size
	if _, err := seg.w.Write(s.framebuf); err != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("l2: segment append: %w", err)
	}
	s.lsn = lsn
	seg.size += size
	s.fileBytes += size
	r := &irec{lsn: lsn, seg: seg, off: off, size: size, expiresAt: exp, deps: deps, volatile: volatile}
	if old, ok := s.index[key]; ok {
		s.liveBytes -= old.size
		if volatile && !old.volatile {
			s.lsn++
			s.journalAppendLocked(journalRec{typ: recTombstone, lsn: s.lsn, key: key})
		}
	}
	s.index[key] = r
	s.liveBytes += size
	if seg.size >= s.segTarget {
		seg.w.Close()
		seg.w = nil
	}
	dropped := s.enforceBudgetLocked()
	s.mu.Unlock()
	s.puts.Add(1)
	return dropped, nil
}

// activeLocked returns the append-target segment, opening one if needed.
func (s *Store) activeLocked() (*segment, error) {
	if n := len(s.segs); n > 0 && s.segs[n-1].w != nil {
		return s.segs[n-1], nil
	}
	return s.openSegmentLocked()
}

func (s *Store) openSegmentLocked() (*segment, error) {
	id := s.segNext
	s.segNext++
	path := s.segPath(id)
	w, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("l2: open segment: %w", err)
	}
	// Reads use a separate descriptor so preads never fight the append
	// handle over a file offset.
	r, err := os.Open(path)
	if err != nil {
		w.Close()
		return nil, fmt.Errorf("l2: open segment for read: %w", err)
	}
	seg := &segment{id: id, r: r, w: w}
	s.segs = append(s.segs, seg)
	return seg, nil
}

// enforceBudgetLocked drops oldest sealed segments until the tier fits its
// byte budget, collecting the still-live keys that went down with them.
func (s *Store) enforceBudgetLocked() []Dropped {
	if s.maxBytes <= 0 {
		return nil
	}
	var dropped []Dropped
	for s.fileBytes > s.maxBytes && len(s.segs) > 1 {
		victim := s.segs[0]
		s.segs = s.segs[1:]
		for k, r := range s.index {
			if r.seg == victim {
				dropped = append(dropped, Dropped{Key: k, Deps: r.deps})
				s.dropIndexLocked(k, r)
			}
		}
		s.fileBytes -= victim.size
		s.closeSegment(victim, true)
		s.segsDropped.Add(1)
	}
	if n := len(dropped); n > 0 {
		s.droppedRecs.Add(uint64(n))
	}
	return dropped
}

// closeSegment closes a segment's descriptors and optionally unlinks the
// file. In-flight Gets holding the segment pointer observe ErrClosed from
// ReadAt and report a miss — never a partial body.
func (s *Store) closeSegment(seg *segment, remove bool) {
	if seg.w != nil {
		seg.w.Close()
		seg.w = nil
	}
	seg.r.Close()
	if remove {
		os.Remove(s.segPath(seg.id))
	}
}

func (s *Store) dropIndexLocked(key string, r *irec) {
	delete(s.index, key)
	s.liveBytes -= r.size
}

// --- invalidation path ---------------------------------------------------

// Remove tombstones key: the index entry is deleted and a tombstone record
// is buffered into the journal. The tombstone is NOT yet durable — callers
// finish an invalidation sweep with Sync before acknowledging the write.
// Returns the entry's deps and whether it was resident. A non-resident key
// needs no new journal record: whatever retired its last record (tombstone,
// flush, segment drop after a snapshot) is already durable or rediscovered
// at boot. Neither does a volatile record: no boot restores it, and the
// durable record it superseded, if any, was tombstoned when it was written.
func (s *Store) Remove(key string) ([]analysis.Query, bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false
	}
	r, ok := s.index[key]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	s.dropIndexLocked(key, r)
	if !r.volatile {
		s.lsn++
		s.journalAppendLocked(journalRec{typ: recTombstone, lsn: s.lsn, key: key})
	}
	s.mu.Unlock()
	s.removes.Add(1)
	return r.deps, true
}

// FlushAll empties the tier: a flush marker is journaled and fsync'd, every
// segment is deleted, and all previously-live keys are returned so the
// caller can unlink their dependency instances. It returns only after the
// marker is durable.
func (s *Store) FlushAll() ([]Dropped, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errClosed
	}
	s.lsn++
	s.journalAppendLocked(journalRec{typ: recFlush, lsn: s.lsn})
	if err := s.syncJournalLocked(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	dropped := make([]Dropped, 0, len(s.index))
	for k, r := range s.index {
		dropped = append(dropped, Dropped{Key: k, Deps: r.deps})
	}
	s.index = make(map[string]*irec)
	s.liveBytes = 0
	for _, seg := range s.segs {
		s.closeSegment(seg, true)
	}
	s.segs = nil
	s.fileBytes = 0
	s.mu.Unlock()
	s.flushes.Add(1)
	return dropped, nil
}

// Sync makes every buffered journal record (tombstones from Remove, cluster
// watermarks) durable. Invalidation sweeps call it once, after the last
// Remove and before the write is acknowledged. The fsync runs outside mu:
// a Put or Get — made under one of the cache's shard locks — never waits on
// the disk behind it. One fsync covers every Sync whose records were written
// before it began.
func (s *Store) Sync() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	err := s.flushJournalLocked()
	target := s.written
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	if s.synced >= target {
		s.mu.Unlock()
		return nil
	}
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	j, upTo := s.journal, s.written
	s.mu.Unlock()
	if err := j.Sync(); err != nil {
		return fmt.Errorf("l2: journal fsync: %w", err)
	}
	s.mu.Lock()
	s.synced = max(s.synced, upTo)
	s.mu.Unlock()
	s.journalSyncs.Add(1)
	return nil
}

// journalAppendLocked frames r into the in-memory journal buffer. Records
// batch there until a flush, so one invalidation sweep costs one write (and
// one fsync from Sync), not one per key.
func (s *Store) journalAppendLocked(r journalRec) {
	s.scratch = r.appendTo(s.scratch[:0])
	s.journalBuf = codec.AppendFrame(s.journalBuf, s.scratch)
}

func (s *Store) flushJournalLocked() error {
	if len(s.journalBuf) == 0 {
		return nil
	}
	if _, err := s.journal.Write(s.journalBuf); err != nil {
		return fmt.Errorf("l2: journal append: %w", err)
	}
	s.journalBuf = s.journalBuf[:0]
	s.written++
	return nil
}

// syncJournalLocked is Sync with the fsync under mu, for the rare callers
// that must hold it throughout (FlushAll, rotation, Close).
func (s *Store) syncJournalLocked() error {
	if err := s.flushJournalLocked(); err != nil {
		return err
	}
	if s.synced == s.written {
		return nil
	}
	if err := s.journal.Sync(); err != nil {
		return fmt.Errorf("l2: journal fsync: %w", err)
	}
	s.synced = s.written
	s.journalSyncs.Add(1)
	return nil
}

// --- cluster watermarks --------------------------------------------------

// RecordApplied journals that origin's broadcast seq has been fully applied
// locally. Callers invoke it after the local sweep, so in file order the
// watermark always trails the tombstones it vouches for; it rides unsynced
// and is made durable by the sweep's own Sync.
func (s *Store) RecordApplied(origin string, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.applied[origin] >= seq {
		return
	}
	s.applied[origin] = seq
	s.journalAppendLocked(journalRec{typ: recApplied, key: origin, seq: seq})
}

// RecordBroadcast journals this node's own completed-broadcast watermark.
func (s *Store) RecordBroadcast(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || seq <= s.ownSeq {
		return
	}
	s.ownSeq = seq
	s.journalAppendLocked(journalRec{typ: recOwnSeq, seq: seq})
}

// RestoreSeqs returns the cluster watermarks recovered at boot: the applied
// vector (origin → seq) and this node's own broadcast seq. The copies are
// the caller's to keep.
func (s *Store) RestoreSeqs() (map[string]uint64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.applied))
	for k, v := range s.applied {
		out[k] = v
	}
	return out, s.ownSeq
}

// --- lifecycle -----------------------------------------------------------

// Close stops the snapshot loop, writes a final snapshot, makes the journal
// durable and closes every file. Idempotent; safe to call from both the
// cache and the runtime.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	stop, done := s.snapStop, s.snapDone
	s.snapStop = nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	err := s.WriteSnapshot()
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return err
	}
	s.closed = true
	if serr := s.syncJournalLocked(); err == nil {
		err = serr
	}
	if cerr := s.journal.Close(); err == nil {
		err = cerr
	}
	for _, seg := range s.segs {
		s.closeSegment(seg, false)
	}
	return err
}

// Abandon closes every descriptor without flushing buffered journal records
// or writing a snapshot — it simulates a crash (SIGKILL) for tests and
// fault injection. State that was not yet durable is lost, exactly as on a
// real crash.
func (s *Store) Abandon() {
	s.syncMu.Lock()
	s.mu.Lock()
	stop, done := s.snapStop, s.snapDone
	s.snapStop = nil
	if s.closed {
		s.mu.Unlock()
		s.syncMu.Unlock()
		return
	}
	s.closed = true
	s.journal.Close()
	for _, seg := range s.segs {
		s.closeSegment(seg, false)
	}
	s.mu.Unlock()
	s.syncMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Snapshot returns current counters.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	st := Stats{
		Entries:   int64(len(s.index)),
		Bytes:     s.liveBytes,
		FileBytes: s.fileBytes,
	}
	s.mu.Unlock()
	st.Hits = s.hits.Load()
	st.Misses = s.misses.Load()
	st.Expirations = s.expirations.Load()
	st.Puts = s.puts.Load()
	st.Removes = s.removes.Load()
	st.Flushes = s.flushes.Load()
	st.SegmentsDropped = s.segsDropped.Load()
	st.DroppedRecords = s.droppedRecs.Load()
	st.JournalSyncs = s.journalSyncs.Load()
	st.TornTails = s.tornTails.Load()
	st.RestoredEntries = s.restored.Load()
	st.Snapshots = s.snaps.Load()
	st.ColdStarts = s.coldBoots.Load()
	return st
}

func (s *Store) segPath(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.l2", id))
}

func (s *Store) journalPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("journal-%08d.l2j", gen))
}

func (s *Store) snapPath() string { return filepath.Join(s.dir, "snapshot.l2s") }
