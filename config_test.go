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

// TestConfigGroupsWireBothTiers proves the PageCache group reaches both
// tiers it names: MaxBytes bounds the memory tier under traffic, and the
// pages it evicts land in the L2Path disk tier, from which a revisit is
// served as a hit instead of being regenerated.
func TestConfigGroupsWireBothTiers(t *testing.T) {
	const budget = 1024
	rt, err := autowebcache.New(newDB(t), autowebcache.Config{
		PageCache: autowebcache.PageCacheConfig{
			MaxBytes:   budget,
			L2Path:     t.TempDir(),
			L2MaxBytes: 1 << 20,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	h, err := rt.Weave(buildApp(t, rt.Conn()), autowebcache.Rules{})
	if err != nil {
		t.Fatal(err)
	}
	targets := []string{"/list", "/list?p=1", "/list?p=2", "/list?p=3", "/list?p=4", "/list?p=5"}
	for _, target := range targets {
		if rr := get(t, h, target); rr.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", target, rr.Code)
		}
	}
	st := rt.Cache().Snapshot()
	if st.Bytes > budget {
		t.Fatalf("MaxBytes=%d not enforced: %d bytes", budget, st.Bytes)
	}
	if st.Demotions == 0 {
		t.Fatalf("memory tier evicted nothing into the disk tier: %+v", st)
	}
	for _, target := range targets {
		if got := get(t, h, target).Header().Get("X-Autowebcache"); got != "hit" {
			t.Fatalf("revisit %s: outcome %q, want hit from one of the two tiers", target, got)
		}
	}
	if st := rt.Cache().Snapshot(); st.Promotions == 0 {
		t.Fatalf("no revisit came back from the disk tier: %+v", st)
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
