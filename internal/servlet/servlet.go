// Package servlet provides the web-application substrate the reproduction's
// benchmark applications are built on: a servlet-like handler model over
// net/http with the canonical page identity AutoWebCache caches on (request
// URI + arguments, §3.3), parameter helpers, and HTML generation utilities.
//
// It plays the role of the Tomcat servlet engine in the paper's testbed: the
// well-known entry and exit points of request handlers (§4.1) that the weave
// package interposes on.
//
// A page miss allocates little here. Param reads the raw query string in
// place instead of building url.Values, and a Page renders into a pooled
// buffer that Page.WriteHTML or Page.WriteFragment sends once and recycles,
// so a Page is single-use.
package servlet

import (
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// HandlerInfo describes one web interaction: its name (as reported in the
// paper's per-request figures), URL path, intrinsic read/write nature and
// the handler function. Cacheability attributes (uncacheable, semantic TTL)
// are NOT part of the application — they are supplied separately as weaving
// rules (weave.Rules), mirroring the paper's separation of pointcut
// specifications from application code.
type HandlerInfo struct {
	// Name is the interaction name, e.g. "ViewItem".
	Name string
	// Path is the URL path the interaction is served on, e.g. "/viewItem".
	Path string
	// Write marks interactions that update the database; their handlers are
	// woven with invalidation advice instead of check/insert advice.
	Write bool
	// Uncacheable marks read interactions that must bypass the cache (the
	// §4.3 hidden-state problem, e.g. random ad banners).
	Uncacheable bool
	// TTL, when positive, caches the page under a semantic freshness window
	// instead of strong consistency (§4.3, TPC-W BestSellers 30 s).
	TTL time.Duration
	// Fn is the handler implementation.
	Fn http.HandlerFunc
	// Fragments, when non-empty, declares the interaction's ESI-style
	// decomposition into cacheable fragments and uncacheable holes (see
	// Segment). When fragment-granular caching is enabled the weaving layer
	// assembles the page from fragment cache hits and runs only the missing
	// segments; otherwise the segments compose into a whole page (Fn, when
	// nil, defaults to ComposeSegments(Fragments)).
	Fragments []Segment
}

// PageKey returns the canonical cache identity of a request: path plus the
// query parameters sorted by name (§3.3: pages are "indexed by the URI of
// the client requests including the request arguments").
func PageKey(r *http.Request) string {
	// url.Query() allocates an empty map even for a bare path; parameterless
	// pages are common enough (and hit often enough) to skip the parse.
	if r.URL.RawQuery == "" {
		return r.URL.Path
	}
	return PageKeyOf(r.URL.Path, r.URL.Query())
}

// SetHeader sets h[key] = [value] like http.Header.Set, but reuses the
// existing value slice when the key is already present with a single value.
// On a reused header map (steady-state benchmark writers, custom keep-alive
// writers) that makes repeated serving allocation-free; under net/http each
// request gets a fresh map, where the first set allocates as usual. key
// must already be in textproto canonical form (e.g. "Content-Type",
// "Etag") — no canonicalisation is performed.
func SetHeader(h http.Header, key, value string) {
	if vs := h[key]; len(vs) == 1 {
		vs[0] = value
		return
	}
	h[key] = []string{value}
}

// keyBuf is a pooled scratch buffer for page-key construction: the builder
// bytes (and the small sort scratch) are reused across requests, so building
// a key costs a single allocation — the final string itself.
type keyBuf struct {
	buf  []byte
	keys []string
}

var keyBufPool = sync.Pool{
	New: func() any { return &keyBuf{buf: make([]byte, 0, 128)} },
}

// PageKeyOf builds a canonical page key from a path and parameter set.
func PageKeyOf(path string, params url.Values) string {
	if len(params) == 0 {
		return path
	}
	kb := keyBufPool.Get().(*keyBuf)
	kb.keys = kb.keys[:0]
	for k := range params {
		kb.keys = append(kb.keys, k)
	}
	sort.Strings(kb.keys)
	b := append(kb.buf[:0], path...)
	sep := byte('?')
	for _, k := range kb.keys {
		vals := params[k]
		if len(vals) > 1 {
			vals = append([]string(nil), vals...)
			sort.Strings(vals)
		}
		for _, v := range vals {
			b = append(b, sep)
			sep = '&'
			b = append(b, url.QueryEscape(k)...)
			b = append(b, '=')
			b = append(b, url.QueryEscape(v)...)
		}
	}
	key := string(b)
	kb.buf = b
	keyBufPool.Put(kb)
	return key
}

// PageKeyWithCookies extends PageKey with the values of the named cookies.
// The paper's §4.3 observes that applications carrying request parameters in
// ad-hoc cookies defeat transparent page identity; naming those cookies in a
// weaving rule restores it (§7: "a special weaving rule would be
// constructed for each non-orthogonal concept").
func PageKeyWithCookies(r *http.Request, names []string) string {
	key := PageKey(r)
	if len(names) == 0 {
		return key
	}
	kb := keyBufPool.Get().(*keyBuf)
	b := append(kb.buf[:0], key...)
	for _, name := range names {
		b = append(b, ';')
		b = append(b, url.QueryEscape(name)...)
		b = append(b, '=')
		if c, err := r.Cookie(name); err == nil {
			b = append(b, url.QueryEscape(c.Value)...)
		}
	}
	key = string(b)
	kb.buf = b
	keyBufPool.Put(kb)
	return key
}

// Param returns a query-string parameter exactly as r.URL.Query().Get(name)
// does: the first value wins, '+' and %XX are unescaped, and a pair holding
// ';' or a bad escape is skipped. It scans RawQuery in place, so reading a
// parameter that needs no unescaping allocates nothing.
func Param(r *http.Request, name string) string {
	q := r.URL.RawQuery
	for q != "" {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, ok := unescape(k); !ok || k != name {
			continue
		}
		if v, ok := unescape(v); ok {
			return v
		}
	}
	return ""
}

// unescape is url.QueryUnescape, returning s itself when it holds nothing
// to unescape.
func unescape(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}

// ParamInt returns an integer request parameter, or def when absent or
// malformed.
func ParamInt(r *http.Request, name string, def int64) int64 {
	s := Param(r, name)
	if s == "" {
		return def
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return def
	}
	return v
}

// WriteHTML writes an HTML response with status 200.
func WriteHTML(w http.ResponseWriter, body string) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, body)
}

// ClientError writes a 400 response; used by handlers for malformed input.
func ClientError(w http.ResponseWriter, msg string) {
	http.Error(w, msg, http.StatusBadRequest)
}

// ServerError writes a 500 response; used by handlers when a query fails.
func ServerError(w http.ResponseWriter, err error) {
	http.Error(w, err.Error(), http.StatusInternalServerError)
}
