package weave

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/memdb"
)

// buildServeWoven is buildWoven with the serve-path variants on: gzip
// variants for everything and precomputed ETags.
func buildServeWoven(t *testing.T, db *memdb.DB, rules Rules) (*Woven, *cache.Cache) {
	t.Helper()
	engine, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: engine, Gzip: true, ETags: true})
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(db, engine)
	w, err := New(testApp(t, conn), c, rules)
	if err != nil {
		t.Fatal(err)
	}
	return w, c
}

// getWith performs a GET with extra request headers.
func getWith(t *testing.T, h http.Handler, target string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, target, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

func TestMissCarriesValidatorAndNegotiatedEncoding(t *testing.T) {
	w, _ := buildServeWoven(t, newItemsDB(t), Rules{})
	// The very first (miss) response must already carry the entry's ETag —
	// a client can only revalidate a validator it has been given — and may
	// negotiate the just-built gzip variant.
	rr := getWith(t, w, "/list?cat=1", map[string]string{"Accept-Encoding": "gzip"})
	if rr.Code != http.StatusOK || rr.Header().Get(HeaderOutcome) != string(OutcomeMiss) {
		t.Fatalf("code=%d outcome=%s", rr.Code, rr.Header().Get(HeaderOutcome))
	}
	etag := rr.Header().Get("ETag")
	if etag == "" {
		t.Fatal("miss response carries no ETag")
	}
	if rr.Header().Get("Content-Encoding") != "gzip" {
		t.Fatal("miss response did not negotiate gzip")
	}
	if got := rr.Header().Get("Content-Length"); got != strconv.Itoa(rr.Body.Len()) {
		t.Fatalf("Content-Length %s != body %d", got, rr.Body.Len())
	}
	zr, err := gzip.NewReader(bytes.NewReader(rr.Body.Bytes()))
	if err != nil {
		t.Fatalf("gzip.NewReader: %v", err)
	}
	identity, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	// The identity hit serves exactly the bytes the gzip variant encodes.
	plain := getWith(t, w, "/list?cat=1", nil)
	if plain.Header().Get(HeaderOutcome) != string(OutcomeHit) {
		t.Fatalf("second request outcome = %s", plain.Header().Get(HeaderOutcome))
	}
	if !bytes.Equal(identity, plain.Body.Bytes()) {
		t.Fatal("gzip variant does not decode to the identity body")
	}
	if plain.Header().Get("ETag") != etag {
		t.Fatal("hit serves a different validator than the miss")
	}
}

func TestHitNegotiationTable(t *testing.T) {
	w, _ := buildServeWoven(t, newItemsDB(t), Rules{})
	getWith(t, w, "/list?cat=1", nil) // warm
	cases := []struct {
		ae   string
		gzip bool
	}{
		{"", false},
		{"gzip", true},
		{"GZIP", true}, // codings are case-insensitive
		{"x-gzip", true},
		{"identity", false},
		{"br", false},       // unknown/unsupported codings are ignored
		{"br, gzip", true},  // list picks the supported member
		{"*", true},         // wildcard allows gzip
		{"*;q=0", false},    // wildcard at q=0 forbids unlisted codings
		{"gzip;q=0", false}, // explicit q=0 refuses gzip
		{"gzip;q=0.000", false},
		{"gzip;q=0.5", true},   // any positive q accepts
		{"gzip;q=0, *", false}, // explicit gzip entry beats the wildcard
		{"br;q=1, *;q=0.5", true},
		{" gzip ; q=0.8 ", true}, // whitespace tolerated
		{"deflate;q=1, gzip;q=0.001", true},
	}
	for _, tc := range cases {
		rr := getWith(t, w, "/list?cat=1", map[string]string{"Accept-Encoding": tc.ae})
		if rr.Code != http.StatusOK {
			t.Fatalf("Accept-Encoding %q: code %d", tc.ae, rr.Code)
		}
		gotGzip := rr.Header().Get("Content-Encoding") == "gzip"
		if gotGzip != tc.gzip {
			t.Errorf("Accept-Encoding %q: gzip=%v, want %v", tc.ae, gotGzip, tc.gzip)
		}
		if vary := rr.Header().Get("Vary"); vary != "Accept-Encoding" {
			t.Errorf("Accept-Encoding %q: Vary = %q", tc.ae, vary)
		}
		wantLen := strconv.Itoa(rr.Body.Len())
		if got := rr.Header().Get("Content-Length"); got != wantLen {
			t.Errorf("Accept-Encoding %q: Content-Length %s != body %s", tc.ae, got, wantLen)
		}
	}
}

func TestConditionalRequestReturns304WithZeroBody(t *testing.T) {
	w, _ := buildServeWoven(t, newItemsDB(t), Rules{})
	warm := getWith(t, w, "/list?cat=1", nil)
	etag := warm.Header().Get("ETag")
	if etag == "" {
		t.Fatal("no ETag to revalidate")
	}
	cases := []struct {
		inm  string
		want int
	}{
		{etag, http.StatusNotModified},
		{"*", http.StatusNotModified},              // If-None-Match: * matches any representation
		{"W/" + etag, http.StatusNotModified},      // weak comparison ignores the W/ prefix
		{`"zzz", ` + etag, http.StatusNotModified}, // list membership
		{`"zzz"`, http.StatusOK},                   // no match -> full response
		{`W/"zzz"`, http.StatusOK},
	}
	for _, tc := range cases {
		rr := getWith(t, w, "/list?cat=1", map[string]string{"If-None-Match": tc.inm})
		if rr.Code != tc.want {
			t.Fatalf("If-None-Match %q: code %d, want %d", tc.inm, rr.Code, tc.want)
		}
		if tc.want == http.StatusNotModified {
			if rr.Body.Len() != 0 {
				t.Fatalf("If-None-Match %q: 304 transferred %d body bytes", tc.inm, rr.Body.Len())
			}
			if rr.Header().Get(HeaderOutcome) != string(OutcomeNotModified) {
				t.Fatalf("If-None-Match %q: outcome %s", tc.inm, rr.Header().Get(HeaderOutcome))
			}
			if rr.Header().Get("ETag") != etag {
				t.Fatalf("If-None-Match %q: 304 must repeat the validator", tc.inm)
			}
		}
	}
	// 304s count as hits, in their own bucket, with zero bytes out.
	for _, is := range w.Stats().Snapshot() {
		if is.Name != "ListCategory" {
			continue
		}
		if is.NotModified != 4 {
			t.Fatalf("NotModified = %d, want 4", is.NotModified)
		}
		if is.Hits < is.NotModified {
			t.Fatalf("304s must count within Hits: hits=%d notModified=%d", is.Hits, is.NotModified)
		}
	}
}

func TestETagChangesAcrossInvalidation(t *testing.T) {
	w, _ := buildServeWoven(t, newItemsDB(t), Rules{})
	warm := getWith(t, w, "/list?cat=0", nil)
	oldTag := warm.Header().Get("ETag")
	// Invalidate cat=0 with a price change that alters the page content.
	if rr := getWith(t, w, "/reprice?id=1&price=424242", nil); rr.Code != http.StatusOK {
		t.Fatalf("write failed: %d", rr.Code)
	}
	// A conditional request with the stale validator regenerates: new entry,
	// new content, new tag, full 200 body.
	rr := getWith(t, w, "/list?cat=0", map[string]string{"If-None-Match": oldTag})
	if rr.Code != http.StatusOK {
		t.Fatalf("stale validator answered %d, want 200", rr.Code)
	}
	if rr.Header().Get(HeaderOutcome) != string(OutcomeMiss) {
		t.Fatalf("outcome = %s, want miss", rr.Header().Get(HeaderOutcome))
	}
	newTag := rr.Header().Get("ETag")
	if newTag == "" || newTag == oldTag {
		t.Fatalf("invalidated entry kept tag %q (new %q)", oldTag, newTag)
	}
	// And the fresh tag revalidates.
	if rr := getWith(t, w, "/list?cat=0", map[string]string{"If-None-Match": newTag}); rr.Code != http.StatusNotModified {
		t.Fatalf("fresh validator answered %d, want 304", rr.Code)
	}
}

// failWriter accepts headers but fails every body write — a client that
// died between our WriteHeader and Write.
type failWriter struct {
	h http.Header
}

func (f *failWriter) Header() http.Header       { return f.h }
func (f *failWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }
func (f *failWriter) WriteHeader(int)           {}

func TestSendFailuresCountedAndKeptOutOfLatencies(t *testing.T) {
	w, _ := buildServeWoven(t, newItemsDB(t), Rules{})
	getWith(t, w, "/list?cat=1", nil) // warm (miss, delivered)
	req := httptest.NewRequest(http.MethodGet, "/list?cat=1", nil)
	w.ServeHTTP(&failWriter{h: make(http.Header)}, req)
	for _, is := range w.Stats().Snapshot() {
		if is.Name != "ListCategory" {
			continue
		}
		if is.SendFailures != 1 {
			t.Fatalf("SendFailures = %d, want 1", is.SendFailures)
		}
		if is.Requests != 2 {
			t.Fatalf("Requests = %d, want 2 (failed send still a request)", is.Requests)
		}
		if is.Hits != 0 {
			t.Fatalf("Hits = %d: a failed send must not count as a served hit", is.Hits)
		}
		for _, ol := range is.Latencies {
			if ol.Outcome == OutcomeHit {
				t.Fatal("failed send leaked into the hit latency histogram")
			}
		}
	}
}

// Whole responses through the fragment path: the vectored serve must emit
// exactly the same bytes the buffered assembly did, with an accurate
// Content-Length.
func TestFragmentVectoredServeSetsContentLength(t *testing.T) {
	w, _ := buildFragWoven(t, newFragDB(t))
	first := getWith(t, w, "/page?cat=1&session=7", nil)
	if first.Code != http.StatusOK {
		t.Fatalf("code %d", first.Code)
	}
	if got := first.Header().Get("Content-Length"); got != strconv.Itoa(first.Body.Len()) {
		t.Fatalf("Content-Length %s != body %d", got, first.Body.Len())
	}
	second := getWith(t, w, "/page?cat=1&session=7", nil)
	if second.Header().Get(HeaderOutcome) != string(OutcomeFragmentHit) {
		t.Fatalf("outcome = %s", second.Header().Get(HeaderOutcome))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("vectored fragment-hit bytes differ from the generated page")
	}
	if got := second.Header().Get("Content-Length"); got != strconv.Itoa(second.Body.Len()) {
		t.Fatalf("hit Content-Length %s != body %d", got, second.Body.Len())
	}
}
