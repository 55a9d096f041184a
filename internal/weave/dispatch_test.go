package weave_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"autowebcache/internal/rubis"
	"autowebcache/internal/servlet"
	"autowebcache/internal/tpcw"
	"autowebcache/internal/weave"
)

// TestExactDispatchMatchesMux: for every registered path of both
// applications, and for unregistered and unclean paths, the Woven answers
// what a ServeMux holding the same handlers alone answers. Each handler is
// replaced by a stub writing its interaction name, so the body names the
// handler that ran.
func TestExactDispatchMatchesMux(t *testing.T) {
	for app, handlers := range map[string][]servlet.HandlerInfo{
		"rubis": rubis.New(nil, rubis.DefaultScale(), 0).Handlers(),
		"tpcw":  tpcw.New(nil, tpcw.DefaultScale(), 0).Handlers(),
	} {
		mux := http.NewServeMux()
		targets := []string{"/nowhere", "/x/y", "//double", "/a/../b", "/./", "", "/%2e%2e/", "/viewItem/", "/home/extra"}
		for i, h := range handlers {
			name := h.Name
			stub := func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, name) }
			handlers[i].Fn, handlers[i].Fragments = stub, nil
			mux.HandleFunc(h.Path, stub)
			targets = append(targets, h.Path, h.Path+"?itemId=1", h.Path+"/", h.Path+"/../"+h.Path[1:], "/."+h.Path)
		}
		w, err := weave.New(handlers, nil, weave.Rules{})
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range targets {
			req := func() *http.Request {
				r := httptest.NewRequest(http.MethodGet, "/", nil)
				r.URL.Path, r.RequestURI = target, target
				return r
			}
			got, want := httptest.NewRecorder(), httptest.NewRecorder()
			w.ServeHTTP(got, req())
			mux.ServeHTTP(want, req())
			if got.Code != want.Code || got.Body.String() != want.Body.String() || got.Header().Get("Location") != want.Header().Get("Location") {
				t.Errorf("%s %q: woven %d %q (Location %q), mux %d %q (Location %q)", app, target,
					got.Code, got.Body, got.Header().Get("Location"), want.Code, want.Body, want.Header().Get("Location"))
			}
		}
	}
}
