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
//	resolve at the key's owner → generate (Woven.run) → guarded insert
//	(cache.InsertSince) → publish the flight
//
// Resolving at the owner is one peer round trip (Resolver): the owner
// answers from its cache or generates the page through its own flight, so
// concurrent misses on one key from different nodes run the handler once.
// This node generates only when the owner was unreachable or refused. A
// Remote without Resolve keeps the older two-step protocol: fetch from the
// owner's cache, generate here, then offer the page to the owner.
//
// The advice functions differ only in what they do with the resolution:
// whole-page advice replays it through the serve choke point, fragment
// advice appends its body to the assembly. ResolvePeer is the owner's side:
// it resolves a forwarded miss here and never forwards it again.

// flight is one in-progress miss computation. done is closed when the
// leader finishes; view/shared are valid only after that.
type flight struct {
	done chan struct{}
	// view is the immutable stored entry the leader resolved the miss to,
	// with its dependency set and TTL (the page alone when fetched through
	// a Remote without Resolve); shared is false when there is none to
	// share (error status, failed read, an interleaved write, an
	// invalidation sweep that raced the generation, an owner's one-off
	// answer, or a panic), in which case followers re-check the cache and
	// compete to lead a fresh flight — a failed flight never poisons the
	// key.
	view   cache.View
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
	// insert, found on re-check), OutcomeRemoteHit (from the key's owner's
	// cache) and OutcomeCoalesced (shared by the flight's leader) carry the
	// stored entry in view. OutcomeMiss and OutcomeError mean the generator
	// ran for this request. When it ran here, rb is its captured response,
	// which the caller serves and then releases, and view is the stored
	// entry when the response was inserted and survived the epoch guard
	// (fresh; zero otherwise). When the key's owner ran it, rb is nil and
	// view is the local replica of the owner's page — unless the owner's
	// response could not be cached, which arrives in rb like a local one.
	// The zero outcome means the client went away while waiting; nothing
	// should be written.
	outcome Outcome
	view    cache.View
	rb      *responseBuffer
	// fresh reports that this request's generation was inserted, or may be
	// shared, under the epoch guard; refused, that the guard turned a
	// cacheable generation away. A response that is neither (error status,
	// aborted read, interleaved write) was never cacheable.
	fresh, refused bool
}

// resolveMiss resolves a local miss on key, whose entries live for ttl
// (0: until invalidated) and are rendered by gen. With forward set, the
// flight leader first asks the key's owner, sending the request with the
// named cookies (those the key covers); the owner's side of that exchange
// calls resolveMiss without it, so a miss is forwarded at most once.
//
// Concurrent misses on one key are coalesced: the first request becomes the
// flight leader; the others wait and share the leader's result, so a
// thundering herd on a cold key runs gen — or pays the remote round trip —
// exactly once. A follower whose context is cancelled simply stops waiting;
// the leader finishes and cleans up on its own. The forced-miss measurement
// mode exists to time the generator on every request (§6); coalescing would
// skip exactly those executions, so its misses run uncoalesced, straight to
// generation.
func (w *Woven) resolveMiss(r *http.Request, key string, ttl time.Duration, gen http.HandlerFunc, cookies []string, forward bool) miss {
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
			return miss{outcome: OutcomeCoalesced, view: lead.view}
		}
		// The leader had nothing to share, or an invalidation sweep ran since
		// it inserted — the flight's view may predate pages the sweep removed.
		// Re-check the cache, then compete to lead a fresh flight. (Export,
		// not Lookup: an owner answering a peer ships the dependency set.)
		if v, ok := w.cache.Export(key); ok {
			return miss{outcome: OutcomeHit, view: v}
		}
	}
	if f != nil {
		defer func() {
			// Unwind the flight even if the generator panics: remove the key
			// so new arrivals start fresh, then unblock waiting followers.
			// The flight's creation-time epoch stands: if an invalidation
			// swept since, followers re-check instead of serving f.view.
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
			if v, ok := w.cache.Export(key); ok {
				f.view, f.shared = v, true
				return miss{outcome: OutcomeHit, view: v}
			}
		}
		// The remote hop rides inside the flight: the leader pays the network
		// round trip once and its followers share the answer, so a herd on a
		// remotely-owned key costs one peer call, not N.
		switch {
		case !forward:
		case w.resolver != nil:
			if a, ok := w.resolver.Resolve(r.Context(), key, peerRequest(r, cookies)); ok {
				return ownerAnswer(f, a)
			}
		case w.remote != nil:
			// Fetch returns the page alone: a peer asking this node is
			// answered from the cache instead (ResolvePeer).
			if pg, ok := w.remote.Fetch(r.Context(), key); ok {
				f.view, f.shared = cache.View{Page: pg}, true
				return miss{outcome: OutcomeRemoteHit, view: f.view}
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
		// and, for a Remote without Resolve, as what is offered to the key's
		// owner (no-op when this node owns the key) — never the pooled
		// buffer. An entry the epoch guard refused is served to this
		// requester only: the flight stays unshared, so followers observe
		// post-invalidation state.
		if pg, _, fresh := w.cache.InsertSince(epoch0, key, m.rb.body.Bytes(), m.rb.contentType(), deps, ttl); fresh {
			m.view, m.fresh = cache.View{Page: pg, Deps: deps, TTL: ttl}, true
			if f != nil {
				f.view, f.shared = m.view, true
			}
			if forward && w.remote != nil && w.resolver == nil {
				w.remote.Offer(key, pg.Body, pg.ContentType, deps, ttl)
			}
		} else {
			m.refused = true
			w.flightAborts.Add(1)
		}
	}
	return m
}

// ownerAnswer turns the key's owner's answer into the flight leader's
// resolution. A cacheable answer is the local replica of the owner's page,
// with its dependency set, shared with the flight: a remote hit when the
// owner had it, a miss when the owner generated it for this request. An
// answer the owner could not cache comes from a handler run for this
// request too; it is served to this request once, with the headers the
// handler set, like a local generation that was not cached, and never run
// again here.
func ownerAnswer(f *flight, a Answer) miss {
	if !a.Cacheable {
		rb := newResponseBuffer()
		rb.body.Write(a.Body)
		for k, vs := range a.Header {
			rb.header[k] = vs
		}
		rb.header.Set("Content-Type", a.ContentType)
		rb.status = a.Status
		if a.Status != http.StatusOK {
			return miss{outcome: OutcomeError, rb: rb}
		}
		return miss{outcome: OutcomeMiss, rb: rb}
	}
	f.view, f.shared = a.View, true
	if a.Generated {
		return miss{outcome: OutcomeMiss, view: f.view}
	}
	return miss{outcome: OutcomeRemoteHit, view: f.view}
}
