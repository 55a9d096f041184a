package weave

import (
	"net/http"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
)

// The miss protocol. A local miss on a cache key — a whole page's or a
// fragment's — is resolved by exactly one function, resolveMiss, in one
// fixed sequence (§3.2 across the read→insert window):
//
//	capture epoch → elect a flight leader → re-check the cache →
//	remote fetch → generate (Woven.run) → guarded insert
//	(cache.InsertSince) → publish the flight → offer to the key's owner
//
// The advice functions differ only in what they do with the resolution:
// whole-page advice replays it through the serve choke point, fragment
// advice appends its body to the assembly.

// flight is one in-progress miss computation. done is closed when the
// leader finishes; page/shared are valid only after that.
type flight struct {
	done chan struct{}
	// page is the immutable stored view the leader resolved the miss to;
	// shared is false when there is none to share (error status, failed
	// read, an interleaved write, an invalidation sweep that raced the
	// generation, or a panic), in which case followers re-check the cache
	// and compete to lead a fresh flight — a failed flight never poisons
	// the key.
	page   cache.Page
	shared bool
	// epoch is the cache's invalidation epoch the shared page is valid
	// under. A follower that wakes to a later epoch must not serve the
	// flight's page blindly — an invalidation may have removed it between
	// the leader's insert and now — and re-checks the cache instead, so
	// followers always observe post-invalidation state (§3.2).
	epoch uint64
}

// miss is how resolveMiss answered a local miss.
type miss struct {
	// outcome says where the answer came from. OutcomeHit (a rival flight's
	// insert, found on re-check), OutcomeRemoteHit (fetched from the key's
	// owner) and OutcomeCoalesced (shared by the flight's leader) carry the
	// stored entry in page. OutcomeMiss and OutcomeError mean this request
	// ran the generator: rb is its captured response, which the caller
	// serves and then releases, and page is the stored entry when the
	// response was inserted and survived the epoch guard (zero otherwise).
	// The zero outcome means the client went away while waiting; nothing
	// should be written.
	outcome Outcome
	page    cache.Page
	rb      *responseBuffer
}

// resolveMiss resolves a local miss on key, whose entries live for ttl
// (0: until invalidated) and are rendered by gen.
//
// Concurrent misses on one key are coalesced: the first request becomes the
// flight leader; the others wait and share the leader's result, so a
// thundering herd on a cold key runs gen — or pays the remote round trip —
// exactly once. A follower whose context is cancelled simply stops waiting;
// the leader finishes and cleans up on its own. The forced-miss measurement
// mode exists to time the generator on every request (§6); coalescing would
// skip exactly those executions, so its misses run uncoalesced, straight to
// generation.
func (w *Woven) resolveMiss(r *http.Request, key string, ttl time.Duration, gen http.HandlerFunc) miss {
	// Captured before the generator's first read (and, coalesced, before
	// flight creation): any invalidation sweep that starts after this point
	// is visible as an epoch change to both the guarded insert and the
	// followers' wake-up check.
	var epoch0 uint64
	var f *flight
	for {
		epoch0 = w.cache.Epoch()
		if w.cache.ForceMiss() {
			break
		}
		w.flightMu.Lock()
		lead, inflight := w.flights[key]
		if !inflight {
			f = &flight{done: make(chan struct{}), epoch: epoch0}
			w.flights[key] = f
		}
		w.flightMu.Unlock()
		if !inflight {
			break
		}
		select {
		case <-lead.done:
		case <-r.Context().Done():
			return miss{}
		}
		if lead.shared && w.cache.Epoch() == lead.epoch {
			return miss{outcome: OutcomeCoalesced, page: lead.page}
		}
		// The leader had nothing to share, or an invalidation sweep ran since
		// it inserted — the flight's view may predate pages the sweep removed.
		// Re-check the cache, then compete to lead a fresh flight.
		if pg, ok := w.cache.Lookup(key); ok {
			return miss{outcome: OutcomeHit, page: pg}
		}
	}
	if f != nil {
		defer func() {
			// Unwind the flight even if the generator panics: remove the key
			// so new arrivals start fresh, then unblock waiting followers.
			// The flight's creation-time epoch stands: if an invalidation
			// swept since, followers re-check instead of serving f.page.
			w.flightMu.Lock()
			delete(w.flights, key)
			w.flightMu.Unlock()
			close(f.done)
		}()
		// A flight that completed between our miss and taking leadership may
		// have just inserted the entry; serve it instead of regenerating.
		// (Contains first: it leaves the hit/miss counters untouched on the
		// common genuinely-cold path.)
		if w.cache.Contains(key) {
			if pg, ok := w.cache.Lookup(key); ok {
				f.page, f.shared = pg, true
				return miss{outcome: OutcomeHit, page: pg}
			}
		}
		// The remote hop rides inside the flight: the leader pays the network
		// round trip once and its followers share the fetched page, so a herd
		// on a remotely-owned key costs one peer call, not N.
		if w.remote != nil {
			if pg, ok := w.remote.Fetch(r.Context(), key); ok {
				f.page, f.shared = pg, true
				return miss{outcome: OutcomeRemoteHit, page: pg}
			}
		}
	}
	m := miss{outcome: OutcomeMiss, rb: newResponseBuffer()}
	rec, _ := w.run(gen, m.rb, r)
	if m.rb.status != http.StatusOK {
		m.outcome = OutcomeError
	} else if !rec.ReadFailed() && len(rec.Writes()) == 0 {
		// An aborted read (§4.2) or an interleaved write is served, never
		// cached. Everything else is inserted with the dependency set this
		// generation's own Recorder captured — so a write invalidates exactly
		// the pages or fragments whose reads it intersects.
		deps := analysis.DedupQueries(rec.Reads())
		if ttl > 0 {
			// Semantic windows replace invalidation-based consistency: the
			// entry is valid for the full window regardless of writes (§4.3
			// — "the best seller pages were marked cacheable for a full 30
			// second window"), so it carries no dependency information.
			deps = nil
		}
		// The stored immutable view doubles as the flight's shared result
		// and as what is replicated to the key's owner nodes (no-op when
		// this node owns the key) — never the pooled buffer. An entry the
		// epoch guard refused is served to this requester only: the flight
		// stays unshared, so followers observe post-invalidation state.
		if pg, _, fresh := w.cache.InsertSince(epoch0, key, m.rb.body.Bytes(), m.rb.contentType(), deps, ttl); fresh {
			m.page = pg
			if f != nil {
				f.page, f.shared = pg, true
			}
			if w.remote != nil {
				w.remote.Offer(key, pg.Body, pg.ContentType, deps, ttl)
			}
		} else {
			w.flightAborts.Add(1)
		}
	}
	return m
}
