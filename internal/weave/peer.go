package weave

import (
	"context"
	"net/http"
	"strings"

	"autowebcache/internal/cache"
	"autowebcache/internal/servlet"
)

// Resolver is the optional Remote method that resolves a local miss at the
// key's owner in one round trip (internal/cluster.Node implements it). The
// owner answers from its cache, or runs the handler for the forwarded
// request through its own single-flight and guarded insert (ResolvePeer), so
// it holds every page its peers ask for and concurrent misses on one key
// from different nodes coalesce there. A cacheable answer has been inserted
// here as a replica through the cache's epoch guard, exactly like a
// fetched one. ok=false means this node owns the key, or the owner was
// unreachable, refused, or answered with a page the guard refused: the
// weave then generates the page locally. SetRemote detects the method once;
// a Remote without it keeps fetch + offer.
//
// The owner runs the handler on the request URI and the cookies the key
// covers, nothing else of the request: a cacheable route's response — an
// error or a redirect included — must depend on no other header or cookie,
// which the cache key already asserts for the pages it stores.
type Resolver interface {
	Resolve(ctx context.Context, key string, req PeerRequest) (Answer, bool)
}

// PeerRequest is a miss forwarded to the key's owner: what the owner needs
// to recompute the key and run the handler. URI is the request URI (path
// and query); Cookie is a Cookie header value carrying only the cookies the
// key covers — the rule-named key cookies, or a fragment's vary cookies.
type PeerRequest struct {
	URI    string
	Cookie string
}

// Answer is how the key's owner resolved a forwarded miss. A cacheable
// answer's View is the stored page with its dependency set and TTL. Status
// is the response status, 200 for every cacheable answer. Generated reports
// that the owner ran the handler for this request (the requester serves it
// as a miss, not a remote hit). Cacheable is false for a response the owner
// could not cache — an error status, an aborted read, a write — which the
// requester serves once and does not store; View then carries only the
// body and content type, and Header every header the handler set
// (Location, Set-Cookie, ...), replayed with it.
type Answer struct {
	cache.View
	Header    http.Header
	Status    int
	Generated bool
	Cacheable bool
}

// peerRequest builds the forwarded form of r for a key covering cookies.
func peerRequest(r *http.Request, cookies []string) PeerRequest {
	pr := PeerRequest{URI: r.URL.RequestURI()}
	if len(cookies) == 0 {
		return pr
	}
	var b strings.Builder
	for _, name := range cookies {
		c, err := r.Cookie(name)
		if err != nil {
			continue
		}
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		b.WriteString(c.String())
	}
	pr.Cookie = b.String()
	return pr
}

// route is a cacheable read handler a forwarded miss may resolve at: its
// effective description and, under fragment advice, its segments with the
// key cookies merged into their vary cookies (nil for whole-page advice).
type route struct {
	h    servlet.HandlerInfo
	segs []servlet.Segment
}

// ResolvePeer resolves, at this node, a miss a peer forwarded for key: the
// owner's side of Resolver. It rebuilds the request from req, finds the
// cacheable read handler it routes to, and recomputes the key — the page
// key, or one of the handler's fragment keys — refusing the request when
// that differs from key. It then resolves the miss exactly as a local
// request would (cache re-check, single-flight, generation, epoch-guarded
// insert) but never forwards it. ok=false is a refusal: no such handler, a
// key mismatch, a generation the epoch guard refused (a write it depends
// on is open or raced it), or ctx ending while the request waited on a
// flight. The answer's View shares the cache's immutable slices.
func (w *Woven) ResolvePeer(ctx context.Context, key string, req PeerRequest) (Answer, bool) {
	if w.cache == nil {
		return Answer{}, false
	}
	r, err := http.NewRequestWithContext(ctx, http.MethodGet, req.URI, nil)
	if err != nil {
		return Answer{}, false
	}
	if req.Cookie != "" {
		r.Header.Set("Cookie", req.Cookie)
	}
	_, pattern := w.mux.Handler(r)
	rt, ok := w.routes[pattern]
	if !ok {
		return Answer{}, false
	}
	ttl, gen := rt.h.TTL, rt.h.Fn
	if rt.segs == nil {
		ok = w.pageKey(r) == key
	} else {
		ok = false
		for i := range rt.segs {
			seg := &rt.segs[i]
			if seg.Cacheable() && servlet.FragmentKey(r.URL.Path, seg.ID, r, seg.Vary, seg.VaryCookies) == key {
				gen, ok = seg.Gen, true
				if seg.TTL > 0 {
					ttl = seg.TTL
				}
				break
			}
		}
	}
	if !ok {
		return Answer{}, false
	}
	m := w.resolveMiss(r, key, ttl, gen, nil, false)
	if m.rb == nil {
		// A local re-check hit or a flight's share — or ctx ended while the
		// request waited on a flight.
		switch m.outcome {
		case "":
			return Answer{}, false
		case OutcomeCoalesced:
			// The flight's leader may have fetched its page through a Remote
			// without Resolve, which returns no dependency set: a peer gets
			// the page only as this cache holds it, dependencies and
			// remaining TTL included, or not at all.
			if m.view, ok = w.cache.Export(key); !ok {
				return Answer{}, false
			}
		}
		return Answer{View: m.view, Status: http.StatusOK, Cacheable: true}, true
	}
	defer m.rb.release()
	switch {
	case m.refused:
		return Answer{}, false
	case m.fresh:
		return Answer{View: m.view, Status: http.StatusOK, Generated: true, Cacheable: true}, true
	}
	// Run for this request and not cacheable: the body and headers leave
	// the pooled buffer as private copies.
	a := Answer{Header: m.rb.header.Clone(), Status: m.rb.status, Generated: true}
	a.Body = append([]byte(nil), m.rb.body.Bytes()...)
	a.ContentType = m.rb.contentType()
	return a, true
}
