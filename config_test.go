package autowebcache_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"autowebcache"
)

// exercise drives a runtime through enough traffic to expose its capacity
// and tier wiring: four distinct pages (so bounds bite), one revisit.
func exercise(t *testing.T, rt *autowebcache.Runtime) {
	t.Helper()
	h, err := rt.Weave(buildApp(t, rt.Conn()), autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"/list", "/list?p=1", "/list?p=2", "/list?p=3", "/list"} {
		if rr := get(t, h, target); rr.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", target, rr.Code)
		}
	}
}

// TestConfigGroupsWireBothTiers proves the grouped sub-structs reach the
// tiers they name: the query-result cache is built, and the page cache's
// bounds are enforced under traffic.
func TestConfigGroupsWireBothTiers(t *testing.T) {
	rt, err := autowebcache.New(newDB(t), autowebcache.Config{
		PageCache: autowebcache.PageCacheConfig{
			MaxEntries:  2,
			MaxBytes:    1 << 20,
			Replacement: autowebcache.LFU,
		},
		QueryResults: autowebcache.QueryCacheConfig{
			Enabled:    true,
			MaxEntries: 8,
			MaxBytes:   1 << 16,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	exercise(t, rt)
	if rt.QueryCache() == nil {
		t.Fatal("query-result cache missing")
	}
	st := rt.Cache().Snapshot()
	if st.Entries > 2 {
		t.Fatalf("MaxEntries=2 not enforced: %d entries", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("bounded cache saw 4 pages but evicted nothing")
	}
}

func TestConfigRejectsUnknownEncoding(t *testing.T) {
	_, err := autowebcache.New(newDB(t), autowebcache.Config{
		Serve: autowebcache.ServeConfig{Encodings: []string{"br"}},
	})
	if err == nil {
		t.Fatal("unknown content-encoding accepted")
	}
}

// TestServeConfigEndToEnd: the facade's Serve group reaches the serve path —
// gzip negotiation and ETag revalidation work through Runtime + Weave.
func TestServeConfigEndToEnd(t *testing.T) {
	rt, err := autowebcache.New(newDB(t), autowebcache.Config{
		Serve: autowebcache.ServeConfig{
			Encodings: []string{"identity", "gzip"},
			ETags:     true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := rt.RawConn().Exec(context.Background(), "INSERT INTO notes (note) VALUES (?)", "a long enough note to be worth compressing, repeated and repeated"); err != nil {
			t.Fatal(err)
		}
	}
	h, err := rt.Weave(buildApp(t, rt.Conn()), autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	plain := get(t, h, "/list")
	etag := plain.Header().Get("ETag")
	if etag == "" {
		t.Fatal("ETags on, no ETag served")
	}

	req := httptest.NewRequest(http.MethodGet, "/list", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	zipped := httptest.NewRecorder()
	h.ServeHTTP(zipped, req)
	if zipped.Header().Get("Content-Encoding") != "gzip" {
		t.Fatal("gzip encoding configured but not negotiated")
	}
	zr, err := gzip.NewReader(bytes.NewReader(zipped.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, plain.Body.Bytes()) {
		t.Fatal("gzip variant decodes to different bytes than identity")
	}

	req = httptest.NewRequest(http.MethodGet, "/list", nil)
	req.Header.Set("If-None-Match", etag)
	cond := httptest.NewRecorder()
	h.ServeHTTP(cond, req)
	if cond.Code != http.StatusNotModified || cond.Body.Len() != 0 {
		t.Fatalf("revalidation: code=%d bodyBytes=%d, want 304 with empty body", cond.Code, cond.Body.Len())
	}
}
