// Boot-time recovery and snapshotting for the L2 store.
//
// The recovered state is the LSN-merge of three sources: the last complete
// snapshot (index as of snapshot time T0), segment records appended after
// each segment's snapshotted offset, and every journal generation on disk.
// A key is live iff its newest record outranks every tombstone for the key
// and the newest flush marker, is not volatile, and its TTL has not lapsed.
// Any file may end in a torn tail (crash mid-append); the tail is truncated
// and counted, never trusted.
//
// Snapshot protocol: the journal is rotated to a fresh generation *first*,
// inside the same critical section that copies the index — so every
// invalidation after the copy lands in a generation the next boot replays
// in full, and a key present in the snapshot but tombstoned a microsecond
// later still dies at replay. The snapshot file is written to a temp path,
// fsync'd and renamed; old journal generations are deleted only after the
// rename succeeds.
//
// One rule sorts every bad frame: a frame cut off by the end of its file or
// failing its checksum is a torn tail, truncated as above; a complete,
// checksum-valid frame that does not decode — an unknown record type
// (including every record of an earlier format), malformed fields or
// trailing bytes — discards the tier. Two more boots refuse to trust the
// files: a snapshot that exists but is incomplete, and journal generations
// whose oldest is not generation zero while no snapshot exists (a snapshot
// must have existed and deleted the earlier generations — without it,
// replay could resurrect tombstoned entries). Discarding the tier starts it
// cold: safe, never stale.
package l2

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"autowebcache/internal/analysis"
)

// bootState is what boot recovery learns before it touches the store: the
// snapshot's counters and index (when there is a snapshot), merged with
// every segment record and journal generation read after it.
type bootState struct {
	lsn        uint64
	segNext    uint64
	journalGen uint64
	ownSeq     uint64
	applied    map[string]uint64
	scanned    map[uint64]int64     // segment id → offset covered by the index
	cands      map[string]candidate // newest record per key
	tomb       map[string]uint64    // newest tombstone LSN per key
	flushLSN   uint64

	// Snapshot sections read: the meta, the entries, and the trailer with
	// the count of entries written.
	sawMeta, sawDone bool
	entries, count   uint64
}

func newBootState() *bootState {
	return &bootState{applied: map[string]uint64{}, scanned: map[uint64]int64{},
		cands: map[string]candidate{}, tomb: map[string]uint64{}}
}

// candidate is the newest segment record seen for a key during recovery,
// before tombstone/flush/TTL filtering.
type candidate struct {
	lsn       uint64
	segID     uint64
	off       int64
	size      int64
	expiresAt int64
	deps      []analysis.Query
}

// errUndecodable marks a complete, checksum-valid record that does not
// decode: a record of another format or version, or corruption the
// checksum missed. Boot cannot tell what it meant, so the tier starts cold.
var errUndecodable = errors.New("undecodable record")

func (s *Store) recover() error {
	segIDs, genIDs, haveSnap, err := s.listFiles()
	if err != nil {
		return err
	}
	os.Remove(s.snapPath() + ".tmp") // stray temp from a crashed snapshot

	st := newBootState()
	if haveSnap {
		if st, err = readSnapshot(s.snapPath()); err != nil {
			s.logf("l2: snapshot unreadable (%v): discarding tier, starting cold", err)
			return s.coldStart(segIDs, genIDs)
		}
	} else if len(genIDs) > 0 && genIDs[0] > 0 {
		s.logf("l2: journal generations start at %d with no snapshot: discarding tier, starting cold", genIDs[0])
		return s.coldStart(segIDs, genIDs)
	}

	// Scan segment tails (everything past each snapshotted offset), then
	// replay every journal generation in order.
	sizes := make([]int64, len(segIDs))
	for i := 0; i < len(segIDs) && err == nil; i++ {
		sizes[i], err = s.scanSegment(segIDs[i], st)
	}
	for i := 0; i < len(genIDs) && err == nil; i++ {
		err = s.replayJournal(genIDs[i], st)
		st.journalGen = max(st.journalGen, genIDs[i]+1)
	}
	if errors.Is(err, errUndecodable) {
		s.logf("%v: discarding tier, starting cold", err)
		return s.coldStart(segIDs, genIDs)
	}
	if err != nil {
		return err
	}

	s.lsn, s.segNext, s.journalGen, s.ownSeq = st.lsn, st.segNext, st.journalGen, st.ownSeq
	for k, v := range st.applied {
		s.applied[k] = v
	}
	segByID := make(map[uint64]*segment, len(segIDs))
	for i, id := range segIDs {
		r, err := os.Open(s.segPath(id))
		if err != nil {
			return fmt.Errorf("l2: reopen segment %d: %w", id, err)
		}
		seg := &segment{id: id, r: r, size: sizes[i]}
		segByID[id] = seg
		s.segs = append(s.segs, seg)
		s.fileBytes += seg.size
		s.segNext = max(s.segNext, id+1)
	}

	// Materialise the index: newest record per key, minus tombstoned,
	// flushed, expired and orphaned (segment gone) entries.
	now := s.clock().UnixNano()
	for key, c := range st.cands {
		if st.tomb[key] > c.lsn || st.flushLSN > c.lsn {
			continue
		}
		seg, ok := segByID[c.segID]
		if !ok || c.off+c.size > seg.size {
			continue // segment dropped after the snapshot, or inside a torn tail
		}
		if c.expiresAt == volatileExpiry {
			continue // a volatile record: never restored, even as the newest
		}
		if c.expiresAt != 0 && c.expiresAt <= now {
			s.expirations.Add(1)
			continue
		}
		s.index[key] = &irec{
			lsn: c.lsn, seg: seg, off: c.off, size: c.size,
			expiresAt: c.expiresAt, deps: c.deps,
		}
		s.liveBytes += c.size
	}
	s.restored.Store(uint64(len(s.index)))

	// A shrunk byte budget is applied before the cache rebuilds dependency
	// links, so boot-dropped keys simply never get links.
	s.enforceBudgetLocked()

	return s.openJournal()
}

// scanSegment walks one segment file from the offset the snapshot covers,
// recording newest candidates, and truncates a torn tail in place. Returns
// the valid size.
func (s *Store) scanSegment(id uint64, st *bootState) (int64, error) {
	path := s.segPath(id)
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("l2: open segment %d: %w", id, err)
	}
	validEnd, torn, err := scanFrames(f, st.scanned[id], func(payload []byte, off, size int64) error {
		rec, _, err := decodeEntry(payload)
		if err != nil {
			return fmt.Errorf("%w at %d: %v", errUndecodable, off, err)
		}
		if old, ok := st.cands[rec.key]; !ok || rec.lsn > old.lsn {
			st.cands[rec.key] = candidate{
				lsn: rec.lsn, segID: id, off: off, size: size,
				expiresAt: rec.expiresAt, deps: rec.deps,
			}
		}
		st.lsn = max(st.lsn, rec.lsn)
		return nil
	})
	f.Close()
	if err != nil {
		return 0, fmt.Errorf("l2: scan segment %d: %w", id, err)
	}
	if torn {
		s.tornTails.Add(1)
		s.logf("l2: segment %d: truncating torn tail at %d", id, validEnd)
		if err := os.Truncate(path, validEnd); err != nil {
			return 0, fmt.Errorf("l2: truncate segment %d: %w", id, err)
		}
	}
	return validEnd, nil
}

// replayJournal applies one journal generation to the recovery state and
// truncates its torn tail, if any.
func (s *Store) replayJournal(gen uint64, st *bootState) error {
	path := s.journalPath(gen)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("l2: open journal %d: %w", gen, err)
	}
	validEnd, torn, err := scanFrames(f, 0, func(payload []byte, off, size int64) error {
		r, err := decodeJournal(payload)
		if err != nil {
			return fmt.Errorf("%w at %d: %v", errUndecodable, off, err)
		}
		switch r.typ {
		case recTombstone:
			st.tomb[r.key] = max(st.tomb[r.key], r.lsn)
		case recFlush:
			st.flushLSN = max(st.flushLSN, r.lsn)
		case recApplied:
			st.applied[r.key] = max(st.applied[r.key], r.seq)
		case recOwnSeq:
			st.ownSeq = max(st.ownSeq, r.seq)
		}
		st.lsn = max(st.lsn, r.lsn)
		return nil
	})
	f.Close()
	if err != nil {
		return fmt.Errorf("l2: replay journal %d: %w", gen, err)
	}
	if torn {
		s.tornTails.Add(1)
		s.logf("l2: journal %d: truncating torn tail at %d", gen, validEnd)
		if err := os.Truncate(path, validEnd); err != nil {
			return fmt.Errorf("l2: truncate journal %d: %w", gen, err)
		}
	}
	return nil
}

// openJournal starts the generation this process will append to. Recovery
// never appends to an inherited file: a fresh generation sidesteps any
// interaction between truncation and the new append stream.
func (s *Store) openJournal() error {
	f, err := os.OpenFile(s.journalPath(s.journalGen), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("l2: open journal: %w", err)
	}
	s.journal = f
	return nil
}

// coldStart discards every tier file and initialises an empty store. Cold
// is always safe: the database is the source of truth and serves the
// refill; only warmth is lost.
func (s *Store) coldStart(segIDs, genIDs []uint64) error {
	for _, id := range segIDs {
		os.Remove(s.segPath(id))
	}
	for _, gen := range genIDs {
		os.Remove(s.journalPath(gen))
	}
	os.Remove(s.snapPath())
	s.coldBoots.Add(1)
	s.journalGen = 0
	return s.openJournal()
}

// listFiles enumerates the store directory into sorted segment and journal
// generation ids.
func (s *Store) listFiles() (segIDs, genIDs []uint64, haveSnap bool, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, false, fmt.Errorf("l2: read dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case name == "snapshot.l2s":
			haveSnap = true
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".l2"):
			if id, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".l2"), 10, 64); perr == nil {
				segIDs = append(segIDs, id)
			}
		case strings.HasPrefix(name, "journal-") && strings.HasSuffix(name, ".l2j"):
			if id, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "journal-"), ".l2j"), 10, 64); perr == nil {
				genIDs = append(genIDs, id)
			}
		}
	}
	sort.Slice(segIDs, func(i, j int) bool { return segIDs[i] < segIDs[j] })
	sort.Slice(genIDs, func(i, j int) bool { return genIDs[i] < genIDs[j] })
	return segIDs, genIDs, haveSnap, nil
}

// --- snapshot writing ----------------------------------------------------

// WriteSnapshot rotates the journal to a fresh generation and persists the
// live index (metadata, every entry, completeness trailer) via
// temp-file + fsync + rename. Old journal generations are deleted only
// after the rename lands. Also runs periodically from the snapshot loop
// and once at Close.
func (s *Store) WriteSnapshot() error {
	// syncMu is held until the old journal is closed: no Sync may fsync it
	// after that.
	s.syncMu.Lock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.syncMu.Unlock()
		return errClosed
	}
	// Rotate first: every journal record after this critical section lands
	// in a generation the next boot replays in full.
	if err := s.syncJournalLocked(); err != nil {
		s.mu.Unlock()
		s.syncMu.Unlock()
		return err
	}
	newGen := s.journalGen + 1
	nj, err := os.OpenFile(s.journalPath(newGen), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		s.mu.Unlock()
		s.syncMu.Unlock()
		return fmt.Errorf("l2: rotate journal: %w", err)
	}
	oldJournal := s.journal
	oldGen := s.journalGen
	s.journal = nj
	s.journalGen = newGen

	buf := s.appendSnapshot(newGen) // the index as of this instant
	s.mu.Unlock()

	oldJournal.Close()
	s.syncMu.Unlock()

	tmp := s.snapPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("l2: snapshot temp: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("l2: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("l2: snapshot fsync: %w", err)
	}
	f.Close()
	if err := os.Rename(tmp, s.snapPath()); err != nil {
		return fmt.Errorf("l2: snapshot rename: %w", err)
	}
	if d, derr := os.Open(s.dir); derr == nil {
		d.Sync()
		d.Close()
	}
	// The snapshot now covers everything up to the rotation point; earlier
	// generations are redundant.
	for gen := uint64(0); gen <= oldGen; gen++ {
		os.Remove(filepath.Join(s.dir, fmt.Sprintf("journal-%08d.l2j", gen)))
	}
	s.snaps.Add(1)
	return nil
}

// readSnapshot parses a snapshot file, requiring a meta section first and a
// trailer whose count matches the entries read — anything less is treated
// as corruption by the caller.
func readSnapshot(path string) (*bootState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st := newBootState()
	_, torn, err := scanFrames(f, 0, func(payload []byte, off, size int64) error {
		if err := st.addSnapshot(payload); err != nil {
			return fmt.Errorf("at %d: %w", off, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if torn || !st.sawDone || st.count != st.entries {
		return nil, fmt.Errorf("l2: snapshot incomplete (torn=%v meta=%v done=%v count=%d/%d)",
			torn, st.sawMeta, st.sawDone, st.entries, st.count)
	}
	return st, nil
}
