package weave

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"autowebcache/internal/servlet"
)

// Fragment-granular (ESI-style) caching: a handler that declares a segment
// decomposition is served by assembling its page from per-fragment cache
// hits, running only the missing fragments' generators and the uncacheable
// holes. Each fragment is an ordinary cache entry — keyed by page path +
// fragment id + the fragment's vary dimensions, carrying its OWN dependency
// set (extracted by a per-fragment recorder) and TTL — so it shares the
// byte budget, the admission filter and the dependency table with whole
// pages, rides the cluster's get/put/inv messages by key unchanged, and
// InvalidateWrite removes exactly the fragments whose read templates
// intersect the write, never the rest of the page.

// assembly accumulates a page's spans for the vectored serve: cached
// fragments stay as shared stored-slice views, and generated output (holes,
// error text, uncached fragment bodies rendered this request) lands in one
// pooled buffer, referenced by offset — offsets stay valid across buffer
// growth, and the final [][]byte vector is materialised once, after every
// generator has run.
type assembly struct {
	spans []span
	gen   *responseBuffer
	parts [][]byte
}

// span is one contiguous stretch of the response: a shared cache view
// (view != nil) or the [a,b) range of the assembly's gen buffer.
type span struct {
	view []byte
	a, b int
}

// asmPool recycles assemblies (span and part slices included) across
// requests.
var asmPool = sync.Pool{New: func() any { return new(assembly) }}

func newAssembly() *assembly {
	a := asmPool.Get().(*assembly)
	a.gen = newResponseBuffer()
	return a
}

// release returns the assembly and its buffer to their pools. The caller
// must be done with the parts vector — the buffer's bytes die here.
func (a *assembly) release() {
	a.gen.release()
	a.gen = nil
	a.spans = a.spans[:0]
	a.parts = a.parts[:0]
	asmPool.Put(a)
}

// addView appends a shared cache view to the page.
func (a *assembly) addView(b []byte) {
	if len(b) > 0 {
		a.spans = append(a.spans, span{view: b})
	}
}

// markGen closes the generated span that started when the gen buffer was
// `from` bytes long (empty output adds no span).
func (a *assembly) markGen(from int) {
	if to := a.gen.body.Len(); to > from {
		a.spans = append(a.spans, span{a: from, b: to})
	}
}

// vector materialises the span list as the [][]byte the vectored serve
// consumes. Call once, after all generators have run.
func (a *assembly) vector() [][]byte {
	buf := a.gen.body.Bytes()
	for _, s := range a.spans {
		if s.view != nil {
			a.parts = append(a.parts, s.view)
		} else {
			a.parts = append(a.parts, buf[s.a:s.b])
		}
	}
	return a.parts
}

// keySegments returns a private copy of a handler's segments with the
// rule-named key cookies merged into every cacheable segment's
// VaryCookies: Rules.KeyCookies are part of EVERY page's identity (§4.3);
// under fragment caching that means every fragment's identity, or a cookie-
// keyed user's fragment would be served verbatim to another user. (The
// declared slices are the application's.)
func (w *Woven) keySegments(declared []servlet.Segment) []servlet.Segment {
	segs := append([]servlet.Segment(nil), declared...)
	for i := range segs {
		if !segs[i].Cacheable() {
			continue
		}
		for _, name := range w.keyCookies {
			dup := false
			for _, have := range segs[i].VaryCookies {
				if have == name {
					dup = true
					break
				}
			}
			if !dup {
				segs[i].VaryCookies = append(append([]string(nil), segs[i].VaryCookies...), name)
			}
		}
	}
	return segs
}

// fragmentAdvice assembles a page from its segments: cacheable fragments
// are looked up (and, missing, generated under the single-flight and
// inserted with their own dependency sets); holes always run. The response
// reports the page-level outcome (fragment-hit when every cacheable
// fragment came from the cache, assembled for a mix, miss when none hit)
// plus the fragment counts and cached-byte split.
func (w *Woven) fragmentAdvice(h servlet.HandlerInfo, segs []servlet.Segment) http.Handler {
	cacheable := 0
	for i := range segs {
		if segs[i].Cacheable() {
			cacheable++
		}
	}
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		start := time.Now()
		page := newAssembly()
		defer page.release()
		hits, cachedBytes := 0, 0
		status := http.StatusOK
		for i := range segs {
			seg := &segs[i]
			if !seg.Cacheable() {
				// Holes render straight into the assembly's generated-span
				// buffer: no intermediate buffer, no copy, on the warm path.
				// Their reads are per-request state, never dependencies; a
				// hole that (against its contract) writes still invalidates.
				from := page.gen.body.Len()
				w.run(seg.Gen, page.gen, r)
				page.markGen(from)
				if page.gen.status != http.StatusOK {
					status = page.gen.status
					break
				}
				continue
			}
			key := servlet.FragmentKey(r.URL.Path, seg.ID, r, seg.Vary, seg.VaryCookies)
			if pg, ok := w.cache.Lookup(key); ok {
				page.addView(pg.Body)
				hits++
				cachedBytes += len(pg.Body)
				continue
			}
			ttl := seg.TTL
			if ttl == 0 {
				ttl = h.TTL
			}
			m := w.resolveMiss(r, key, ttl, seg.Gen, seg.VaryCookies, true)
			if m.outcome == "" {
				return // client gone mid-flight; nothing to write
			}
			if m.rb == nil {
				// A local re-check hit, a coalesced flight share, or a cluster
				// peer's copy: bytes from the cache — a hit unless the key's
				// owner generated the fragment for this request.
				page.addView(m.view.Body)
				if m.outcome != OutcomeMiss {
					hits++
					cachedBytes += len(m.view.Body)
				}
				continue
			}
			// Generated this request: the stored view when the fragment was
			// inserted, else a private copy — the capture buffer dies here.
			body := m.view.Body
			if !m.fresh {
				body = append([]byte(nil), m.rb.body.Bytes()...)
			}
			page.addView(body)
			segStatus := m.rb.status
			m.rb.release()
			if segStatus != http.StatusOK {
				status = segStatus
				break
			}
		}
		if status != http.StatusOK {
			// Abort the assembly with the failing segment's status, serving
			// everything written so far — prefix plus error text, the same
			// body the monolithic composition replays when a segment errors
			// mid-page. (Error helpers overwrite Content-Type to text/plain,
			// exactly as they do on the buffered monolithic path.)
			sv := serveParts(rw, status, "text/plain; charset=utf-8", OutcomeError, page.vector())
			if sv.err != nil {
				w.stats.RecordSendFailure(h.Name)
				return
			}
			w.stats.Record(h.Name, OutcomeError, time.Since(start), 0)
			return
		}
		outcome := OutcomeMiss
		switch {
		case cacheable == 0:
			// All holes: nothing cacheable — an uncacheable page in
			// fragment clothing.
			outcome = OutcomeUncacheable
		case hits == cacheable:
			outcome = OutcomeFragmentHit
		case hits > 0:
			outcome = OutcomeAssembled
		}
		hdr := rw.Header()
		servlet.SetHeader(hdr, HeaderFragments, strconv.Itoa(hits)+"/"+strconv.Itoa(cacheable))
		servlet.SetHeader(hdr, HeaderCachedBytes, strconv.Itoa(cachedBytes))
		sv := serveParts(rw, http.StatusOK, "text/html; charset=utf-8", outcome, page.vector())
		if sv.err != nil {
			w.stats.RecordSendFailure(h.Name)
			return
		}
		w.stats.RecordFragments(h.Name, outcome, time.Since(start), hits, cacheable, sv.bytes, cachedBytes)
	})
}
