package servlet

import (
	"io"
	"net/http"
	"net/url"
	"time"
)

// Segment is one piece of a fragmented response — the ESI-style decomposition
// of a dynamic page into independently cacheable fragments and uncacheable
// holes. A handler that declares Segments (HandlerInfo.Fragments) renders its
// page as the ordered concatenation of its segments' output; the weaving
// layer may then serve cacheable fragments from the page cache and execute
// only the missing fragments' generators plus the holes.
//
// Generators write their chunk of the response body to w. They must NOT call
// WriteHeader on success — an implicit 200 is assumed, and segments are
// concatenated — but error helpers (ClientError, ServerError) work: a
// non-200 status aborts the assembly and the failing segment's output is
// served alone. Hole generators must not write to the database; fragment
// generators must be pure functions of their Vary dimensions and the
// database (anything else belongs in a hole).
type Segment struct {
	// ID names the fragment within its page; it is part of the fragment's
	// cache key. Empty marks an uncacheable hole, regenerated on every
	// request (personalised greetings, ad banners, CSRF tokens).
	ID string
	// Vary lists the request parameters whose values join the fragment's
	// cache key — the fragment's own identity dimensions, typically a strict
	// subset of the page's parameters. A fragment that does not vary by a
	// parameter is shared across all page variants differing only in it:
	// that sharing is fragment caching's hit-rate multiplier.
	Vary []string
	// VaryCookies lists cookie names whose values join the key (session or
	// user identity carried in cookies rather than the URL).
	VaryCookies []string
	// TTL, when positive, caches the fragment under a semantic freshness
	// window instead of strong consistency (per-fragment, finer than the
	// per-page semantic windows of weaving rules).
	TTL time.Duration
	// Gen renders the segment.
	Gen http.HandlerFunc
}

// Cacheable reports whether the segment is a fragment (true) or a hole.
func (s Segment) Cacheable() bool { return s.ID != "" }

// FragmentKey builds a fragment's cache identity: the page path, the
// fragment id, and the values of the fragment's vary dimensions — NOT the
// full page key, so a fragment is shared across every page variant that
// agrees on its vary dimensions. The layout is
//
//	path#id?p=v&q=w;cookie=x
//
// with parameters in declared Vary order (stable for a given Segment).
func FragmentKey(path, id string, r *http.Request, vary, varyCookies []string) string {
	kb := keyBufPool.Get().(*keyBuf)
	b := append(kb.buf[:0], path...)
	b = append(b, '#')
	b = append(b, id...)
	sep := byte('?')
	if len(vary) > 0 {
		params := r.URL.Query()
		for _, name := range vary {
			for _, v := range params[name] {
				b = append(b, sep)
				sep = '&'
				b = append(b, url.QueryEscape(name)...)
				b = append(b, '=')
				b = append(b, url.QueryEscape(v)...)
			}
		}
	}
	for _, name := range varyCookies {
		b = append(b, ';')
		b = append(b, url.QueryEscape(name)...)
		b = append(b, '=')
		if c, err := r.Cookie(name); err == nil {
			b = append(b, url.QueryEscape(c.Value)...)
		}
	}
	key := string(b)
	kb.buf = b
	keyBufPool.Put(kb)
	return key
}

// statusWriter tracks the status a composed segment reported so composition
// can stop at the first error.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// ComposeSegments renders the segments in order as one whole page — the
// monolithic form of a fragmented handler, used as its HandlerInfo.Fn when
// fragment-granular caching is disabled (whole-page mode and baselines) so
// both modes serve byte-identical pages. Composition stops at the first
// segment that reports a non-200 status.
func ComposeSegments(segs []Segment) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		for i := range segs {
			segs[i].Gen(sw, r)
			if sw.status != 0 && sw.status != http.StatusOK {
				return
			}
		}
	}
}

// WriteFragment writes a segment's HTML chunk: Content-Type is set if still
// unset, but no status is written (segments concatenate; the first body
// write implies 200).
func WriteFragment(w http.ResponseWriter, body string) {
	setFragmentType(w)
	_, _ = io.WriteString(w, body)
}

func setFragmentType(w http.ResponseWriter) {
	h := w.Header()
	if h.Get("Content-Type") == "" {
		h.Set("Content-Type", "text/html; charset=utf-8")
	}
}

// Fragmented builds a read interaction from its segment decomposition: the
// segments are declared for fragment-granular caching, and their in-order
// composition is the handler's monolithic form (used when fragment caching
// is disabled, and by baselines mounting Fn directly).
func Fragmented(name, path string, segs []Segment) HandlerInfo {
	return HandlerInfo{
		Name:      name,
		Path:      path,
		Fn:        ComposeSegments(segs),
		Fragments: segs,
	}
}

// TailSegment closes the page shell opened by a page's first segment. It
// has no queries, so it is cached once and shared by every request of the
// page.
func TailSegment() Segment {
	return Segment{ID: "tail", Gen: func(w http.ResponseWriter, r *http.Request) {
		WriteFragment(w, ClosePage)
	}}
}
