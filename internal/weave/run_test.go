package weave

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/memdb"
	"autowebcache/internal/servlet"
)

// sneakyWrite is the committed statement every test here issues from a
// handler that is not supposed to write, or that dies after writing. Item 1
// is in category 0, so it changes /list?cat=0.
func sneakyWrite(conn memdb.Conn, r *http.Request) {
	if _, err := conn.Exec(r.Context(), "UPDATE items SET price = 999 WHERE id = 1"); err != nil {
		panic(err)
	}
}

// serveRecovering serves target, swallowing a handler panic the way
// net/http does, and reports whether one happened.
func serveRecovering(h http.Handler, target string) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, target, nil))
	return false
}

// TestCommittedWriteInvalidatesAtEverySite: wherever a woven handler's
// statement commits — a write interaction, a read generator, a fragment
// hole, an Uncacheable bypass — the pages it changed are invalidated,
// whether the handler then returns or panics (§3.2: a miss, never a stale
// hit).
func TestCommittedWriteInvalidatesAtEverySite(t *testing.T) {
	for _, site := range []struct {
		name  string
		rules Rules
		mount func(fn http.HandlerFunc) servlet.HandlerInfo
	}{
		{"write", Rules{}, func(fn http.HandlerFunc) servlet.HandlerInfo {
			return servlet.HandlerInfo{Name: "Sneaky", Path: "/sneaky", Write: true, Fn: fn}
		}},
		{"read", Rules{}, func(fn http.HandlerFunc) servlet.HandlerInfo {
			return servlet.HandlerInfo{Name: "Sneaky", Path: "/sneaky", Fn: fn}
		}},
		{"hole", Rules{Fragments: true}, func(fn http.HandlerFunc) servlet.HandlerInfo {
			return servlet.HandlerInfo{Name: "Sneaky", Path: "/sneaky",
				Fragments: []servlet.Segment{{Gen: fn}}}
		}},
		{"uncacheable", Rules{Uncacheable: []string{"Sneaky"}}, func(fn http.HandlerFunc) servlet.HandlerInfo {
			return servlet.HandlerInfo{Name: "Sneaky", Path: "/sneaky", Fn: fn}
		}},
	} {
		for _, panics := range []bool{false, true} {
			name := site.name
			if panics {
				name += "/panics"
			}
			t.Run(name, func(t *testing.T) {
				db := newItemsDB(t)
				engine, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
				if err != nil {
					t.Fatal(err)
				}
				c, err := cache.New(cache.Options{Engine: engine})
				if err != nil {
					t.Fatal(err)
				}
				conn := NewConn(db, engine)
				fn := func(rw http.ResponseWriter, r *http.Request) {
					sneakyWrite(conn, r)
					if panics {
						panic("handler died after its statement committed")
					}
					servlet.WriteHTML(rw, "<html>done</html>")
				}
				w, err := New(append(testApp(t, conn), site.mount(fn)), c, site.rules)
				if err != nil {
					t.Fatal(err)
				}
				get(t, w, "/list?cat=0")
				if _, out := get(t, w, "/list?cat=0"); out != string(OutcomeHit) {
					t.Fatalf("warm-up outcome %q, want hit", out)
				}
				if got := serveRecovering(w, "/sneaky"); got != panics {
					t.Fatalf("handler panicked = %v, want %v", got, panics)
				}
				rr, out := get(t, w, "/list?cat=0")
				if out != string(OutcomeMiss) || !strings.Contains(rr.Body.String(), "999") {
					t.Fatalf("after the committed write: outcome %q, body has new price = %v",
						out, strings.Contains(rr.Body.String(), "999"))
				}
			})
		}
	}
}

// TestPanickingLeaderUnwindsFlight: a read generator that commits a write
// and then panics still invalidates, and its flight still unwinds — a
// follower waiting on it is released and regenerates the page itself.
func TestPanickingLeaderUnwindsFlight(t *testing.T) {
	db := newItemsDB(t)
	engine, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	conn := NewConn(db, engine)
	var executions atomic.Int64
	inside, release := make(chan struct{}), make(chan struct{})
	gen := func(rw http.ResponseWriter, r *http.Request) {
		if executions.Add(1) == 1 {
			sneakyWrite(conn, r)
			close(inside)
			<-release
			panic("generator died after its statement committed")
		}
		servlet.WriteHTML(rw, "<html>regenerated</html>")
	}
	w, err := New(append(testApp(t, conn), servlet.HandlerInfo{Name: "Gen", Path: "/gen", Fn: gen}), c, Rules{})
	if err != nil {
		t.Fatal(err)
	}
	get(t, w, "/list?cat=0")

	leaderPanicked := make(chan bool, 1)
	go func() { leaderPanicked <- serveRecovering(w, "/gen") }()
	<-inside
	type result struct{ out, body string }
	follower := make(chan result, 1)
	go func() {
		rr, out := get(t, w, "/gen")
		follower <- result{out, rr.Body.String()}
	}()
	// Give the follower time to join the leader's flight, then let the
	// leader die.
	time.Sleep(10 * time.Millisecond)
	close(release)
	if !<-leaderPanicked {
		t.Fatal("leader did not panic")
	}
	select {
	case got := <-follower:
		if got.out != string(OutcomeMiss) || got.body != "<html>regenerated</html>" {
			t.Fatalf("follower: outcome %q body %q, want a regenerated miss", got.out, got.body)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("follower hung on the panicked leader's flight")
	}
	if n := executions.Load(); n != 2 {
		t.Fatalf("generator ran %d times, want 2 (panicked leader + follower)", n)
	}
	if rr, out := get(t, w, "/list?cat=0"); out != string(OutcomeMiss) || !strings.Contains(rr.Body.String(), "999") {
		t.Fatalf("after the panicked generator's write: outcome %q", out)
	}
}
