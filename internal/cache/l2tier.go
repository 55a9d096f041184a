// Disk-tier (L2) movement for the page cache: demotion on eviction, the
// spill of an insert the L1 budget refused, promotion on L1 miss, and the
// spill-on-shutdown path that makes a clean restart warm. The key table's
// own calls into the tier (link, drop, spill, forget, the sweep's Sync) are
// in store.go.
//
// Consistency across the tiers leans on two invariants:
//
//  1. The dependency table is the single source of truth for both tiers.
//     Demotion keeps the entry's dependency links; an invalidation sweep
//     finds disk-only keys through the same candidate scan as L1 keys and
//     removes them from the disk store before the writer's response is
//     released.
//  2. Every transition for a key happens under that key's shard lock: the
//     sweep removes the L1 entry and tombstones the disk copy in one
//     critical section, and a promotion re-checks the disk record's LSN
//     inside the same lock before linking into L1. A promotion racing a
//     sweep therefore either linked early enough for the sweep to remove
//     it, or observes the tombstone and aborts — a stale body can never
//     slip back in behind a completed invalidation.
//
// Serving (without caching) a body read from the disk store needs no such
// recheck: the store's Get observed the record live, so any invalidation
// of it had not yet returned to its writer when this lookup began — the
// ordering §3.2 requires.
package cache

import (
	"autowebcache/internal/analysis"
	"autowebcache/internal/cache/l2"
)

// attachL2 rebuilds the dependency links for the disk-resident pages the
// tier's warm boot restored, so a write arriving before any promotion still
// finds and invalidates them. Called from New only: single-threaded, so no
// key shard lock is needed.
func (c *Cache) attachL2() {
	c.opts.L2.Range(func(key string, deps []analysis.Query) {
		c.linkDeps(c.shard(key), key, deps)
	})
}

// demote moves an eviction victim into the disk tier instead of discarding
// it — or, volatile, spills an insert the L1 budget refused there instead of
// dropping it. On any store refusal (oversize for the tier, store closed) it
// reports kept=false and the caller falls back to a plain removal. kept=true
// means the tier now holds the entry, so its dependency links stay — the
// dependency table stays the single source of truth for both tiers. dropped
// are keys the tier pushed out to make room. Called with the key's shard
// lock held.
func (c *Cache) demote(e *entry, volatile bool) (kept bool, dropped []l2.Dropped) {
	if c.flushing.Load() > 0 {
		// A flush sweep is in progress: demoting now could land this page
		// in the store after the flush has already emptied it, carrying a
		// pre-flush body past the flush. Discard instead — the flush wanted
		// every resident page gone anyway.
		return false, nil
	}
	var err error
	switch {
	case volatile:
		dropped, err = c.opts.L2.PutVolatile(e.Key, e.Body, e.ContentType, e.Deps, e.ExpiresAt)
	case e.l2lsn == 0 || c.opts.L2.LSN(e.Key) != e.l2lsn:
		// Unless the durable record this entry was promoted from is still
		// the store's newest for the key: then no bytes need rewriting.
		dropped, err = c.opts.L2.Put(e.Key, e.Body, e.ContentType, e.Deps, e.ExpiresAt)
	}
	if err != nil {
		return false, nil
	}
	if volatile {
		c.spills.Add(1)
	} else {
		c.demotions.Add(1)
	}
	return true, dropped
}

// promote serves an L1 miss from the disk tier: read the record, rebuild
// the entry (variants are derived locally, exactly like a cluster replica
// fetch), and admit it into L1 under the same budget rules as any insert.
// The promoted record stays live in the store; if the entry is later
// demoted unchanged, the existing disk record is reused (entry.l2lsn) —
// unless it is volatile: an entry promoted from a spill is rewritten durably
// when demoted, or spilled by Close, so a clean restart stays warm for
// everything L1 held.
func (c *Cache) promote(key string) (*entry, bool) {
	rec, ok := c.opts.L2.Get(key)
	if !ok {
		if rec.Deps != nil {
			// The probe itself retired a resident record (expired TTL or an
			// unreadable body); clear its dependency links if the key is now
			// resident in neither tier.
			c.forget([]l2.Dropped{{Key: key, Deps: rec.Deps}})
		}
		return nil, false
	}
	e := c.newEntry(key, Page{Body: rec.Body, ContentType: rec.ContentType}, rec.Deps, rec.ExpiresAt)
	if !rec.Volatile {
		e.l2lsn = rec.LSN
	}
	// The record Get read may stop being the store's current one for the key
	// before the entry links — an invalidation, flush or segment drop retired
	// it (LSN 0), or a fresh insert's demotion superseded it (newer LSN; a
	// bare existence check would wrongly pass). Linking the body then could
	// resurrect it behind a completed sweep, so the promotion aborts; the
	// lookup reports a miss and the caller regenerates. A flush in progress
	// aborts for the same reason: this shard may already have been swept.
	serve, linked := c.adopt(e, func() bool {
		return c.opts.L2.LSN(key) == rec.LSN && c.flushing.Load() == 0
	})
	switch {
	case serve == nil:
		c.promoteAborts.Add(1)
	case linked:
		c.promotions.Add(1)
	}
	return serve, serve != nil
}

// Close spills every resident L1 page into the disk tier and closes the
// store — snapshot written, journal durable — so a clean (SIGTERM)
// shutdown restarts warm even if L1 pressure never forced a demotion.
// Without an attached store it is a no-op. The cache must not be used
// after Close.
func (c *Cache) Close() error {
	if c.opts.L2 == nil {
		return nil
	}
	c.clear(true)
	return c.opts.L2.Close()
}
