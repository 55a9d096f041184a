package weave

// The serve choke point. Every cache-governed response — whole-page hits,
// coalesced and remote-fetched shares, miss replays and fragment
// assemblies — leaves the process through the two functions in this file,
// which decide the full HTTP surface in one place:
//
//   - content-encoding negotiation (Accept-Encoding against the entry's
//     once-compressed gzip variant, identity as the universal fallback);
//   - conditional requests (If-None-Match against the entry's precomputed
//     strong ETag → 304 with zero body bytes);
//   - Content-Length (from the entry's precomputed decimal strings, so the
//     steady-state hit sets it without an allocation);
//   - the X-Autowebcache-* diagnostic headers;
//   - write-error propagation: the number of bytes actually delivered and
//     the first write error come back to the caller, so failed sends are
//     counted (Stats.SendFailures) instead of silently polluting the
//     latency records.
//
// Negotiation happens strictly AFTER the epoch-guarded cache decision: the
// weave first resolves WHICH immutable entry answers the request (lookup,
// single-flight, epoch re-check — see miss.go), and only then resolves HOW
// that entry's bytes go out. Variants are views of one entry, so a 304 or a
// gzip body can never be fresher or staler than the identity body of the
// same response.
//
// Fragment assemblies are emitted as a vector of spans ([][]byte via
// net.Buffers): cached fragments go out as the stored slices themselves and
// generated spans straight from the assembly buffer — no reassembly copy.
// On a real *net.TCPConn net.Buffers becomes a single writev; on other
// writers it degrades to sequential writes, still copy-free.

import (
	"net"
	"net/http"
	"strconv"
	"time"

	"autowebcache/internal/cache"
	"autowebcache/internal/servlet"
)

// served is the serve outcome handed back to the advice for accounting:
// what the response became (a conditional serve may upgrade the planned
// outcome to not-modified), how many body bytes were delivered, and the
// first write error, if any.
type served struct {
	outcome Outcome
	bytes   int
	err     error
}

// servePage serves one cached entry view. outcome is the caller's planned
// outcome (hit, semantic-hit, coalesced, remote-hit); the returned outcome
// is OutcomeNotModified instead when the client's If-None-Match matched the
// entry's ETag.
func (w *Woven) servePage(rw http.ResponseWriter, r *http.Request, pg cache.Page, outcome Outcome) served {
	h := rw.Header()
	if pg.ETag != "" {
		servlet.SetHeader(h, "Etag", pg.ETag)
		if etagMatch(r.Header.Get("If-None-Match"), pg.ETag) {
			if pg.Gzip != nil {
				servlet.SetHeader(h, "Vary", "Accept-Encoding")
			}
			servlet.SetHeader(h, HeaderOutcome, string(OutcomeNotModified))
			rw.WriteHeader(http.StatusNotModified)
			return served{outcome: OutcomeNotModified}
		}
	}
	servlet.SetHeader(h, "Content-Type", pg.ContentType)
	servlet.SetHeader(h, HeaderOutcome, string(outcome))
	body, clen := pg.Body, pg.BodyLen
	if pg.Gzip != nil {
		// The response varies on Accept-Encoding whether or not this
		// particular client negotiated the variant — caches between us and
		// other clients must know.
		servlet.SetHeader(h, "Vary", "Accept-Encoding")
		if acceptsGzip(r.Header.Get("Accept-Encoding")) {
			body, clen = pg.Gzip, pg.GzipLen
			servlet.SetHeader(h, "Content-Encoding", "gzip")
		}
	}
	// Content-Length comes from the entry's precomputed decimal string;
	// entries stored before the serve knobs were on have none, and for
	// those we leave the header to net/http's single-write inference rather
	// than pay an Itoa allocation per serve.
	if clen != "" {
		servlet.SetHeader(h, "Content-Length", clen)
	}
	rw.WriteHeader(http.StatusOK)
	n, err := rw.Write(body)
	return served{outcome: outcome, bytes: n, err: err}
}

// serveCaptured replays a captured handler response (miss and write paths).
// The handler's own headers are preserved; the choke point adds the outcome
// header and Content-Length. When the 200 response was just inserted, pg is
// the stored entry: the first response already carries the validator its
// future conditional requests will revalidate against, and the transfer
// itself is negotiated against the entry's variants. (No If-None-Match
// handling here — the handler has already executed, so there is no work to
// elide; 304s are the hit path's.)
func (w *Woven) serveCaptured(rw http.ResponseWriter, r *http.Request, rb *responseBuffer, outcome Outcome, pg cache.Page) served {
	h := rw.Header()
	for k, vs := range rb.header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	servlet.SetHeader(h, HeaderOutcome, string(outcome))
	body, clen := rb.body.Bytes(), ""
	if rb.status == http.StatusOK {
		if pg.ETag != "" {
			servlet.SetHeader(h, "Etag", pg.ETag)
		}
		if pg.BodyLen != "" {
			clen = pg.BodyLen
		}
		if pg.Gzip != nil {
			servlet.SetHeader(h, "Vary", "Accept-Encoding")
			if acceptsGzip(r.Header.Get("Accept-Encoding")) {
				body, clen = pg.Gzip, pg.GzipLen
				servlet.SetHeader(h, "Content-Encoding", "gzip")
			}
		}
	}
	// Like servePage: only a precomputed Content-Length is worth a header;
	// the rest net/http infers from the single Write.
	if clen != "" {
		servlet.SetHeader(h, "Content-Length", clen)
	}
	rw.WriteHeader(rb.status)
	n, err := rw.Write(body)
	return served{outcome: outcome, bytes: n, err: err}
}

// serveParts emits a fragment assembly as a vectored write: cached
// fragments as the stored slices, generated spans from the assembly buffer,
// no concatenation copy. Assemblies serve identity only (a page stitched
// from per-fragment gzip members would be a multi-member stream of worse
// ratio, and fragments revalidate individually, not as a page), so there is
// no negotiation here — just Content-Type, outcome, Content-Length and the
// vector itself. parts is consumed (net.Buffers advances it in place).
func serveParts(rw http.ResponseWriter, status int, contentType string, outcome Outcome, parts [][]byte) served {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	h := rw.Header()
	servlet.SetHeader(h, "Content-Type", contentType)
	servlet.SetHeader(h, HeaderOutcome, string(outcome))
	servlet.SetHeader(h, "Content-Length", strconv.Itoa(total))
	rw.WriteHeader(status)
	bufs := net.Buffers(parts)
	n, err := bufs.WriteTo(rw)
	return served{outcome: outcome, bytes: int(n), err: err}
}

// recordServe accounts one served response: a clean send records the
// outcome with its latency; a failed send records only the failure, keeping
// every latency series free of client-death durations. cached reports
// whether the delivered bytes came from the cache (hits and shares) so the
// cached-byte fraction stays honest for negotiated (gzip, 304) transfers —
// it counts bytes actually moved, not entry sizes.
func (w *Woven) recordServe(name string, sv served, d time.Duration, cached bool) {
	if sv.err != nil {
		w.stats.RecordSendFailure(name)
		return
	}
	bytesCached := 0
	if cached {
		bytesCached = sv.bytes
	}
	w.stats.RecordServed(name, sv.outcome, d, 0, sv.bytes, bytesCached)
}
