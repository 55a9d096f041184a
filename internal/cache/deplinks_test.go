package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache/l2"
	"autowebcache/internal/datasource"
)

// residentLinks counts the distinct templates and (template, value vector)
// instances the resident entries depend on: every L1 entry's Deps plus, when
// a disk tier is attached, every tier record's. It must run at a settle
// point, with no operation in flight.
func residentLinks(c *Cache) (templates, instances int) {
	links := make(map[string]map[string]bool)
	add := func(deps []analysis.Query) {
		for _, d := range deps {
			if links[d.SQL] == nil {
				links[d.SQL] = make(map[string]bool)
			}
			links[d.SQL][datasource.KeyOfValues(d.Args)] = true
		}
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, n := range sh.items {
			add(n.Deps)
		}
		sh.mu.Unlock()
	}
	if c.opts.L2 != nil {
		c.opts.L2.Range(func(_ string, deps []analysis.Query) { add(deps) })
	}
	for _, vecs := range links {
		instances += len(vecs)
	}
	return len(links), instances
}

// randDeps draws one to three read instances over two tables, from a
// universe small enough that pages share instances and templates.
func randDeps(rng *rand.Rand) []analysis.Query {
	deps := make([]analysis.Query, 1+rng.Intn(3))
	for i := range deps {
		switch rng.Intn(3) {
		case 0:
			deps[i] = dep("SELECT a FROM dl0 WHERE b = ?", int64(rng.Intn(6)))
		case 1:
			deps[i] = dep("SELECT a FROM dl1 WHERE b = ? AND c = ?", int64(rng.Intn(6)), int64(rng.Intn(3)))
		default:
			deps[i] = dep("SELECT a FROM dl1")
		}
	}
	return deps
}

// randSweep draws a write: mostly one bound value, now and then a whole
// table.
func randSweep(rng *rand.Rand) analysis.WriteCapture {
	switch rng.Intn(8) {
	case 0:
		return wcap("UPDATE dl1 SET a = ?", int64(1))
	case 1, 2, 3:
		return wcap("DELETE FROM dl1 WHERE b = ?", int64(rng.Intn(6)))
	default:
		return wcap("UPDATE dl0 SET a = ? WHERE b = ?", int64(1), int64(rng.Intn(6)))
	}
}

// TestDepTableHoldsResidentLinks pins the dependency table to the entries it
// serves, in every governance mode: after each settle point DepTemplates and
// DepInstances equal the distinct links of the L1 and disk-tier residents.
// A removal path — sweep, eviction, demotion, tier drop, replacement, key
// removal — that forgets to unlink leaves an instance behind and the table
// grows with run length; one that unlinks too eagerly leaves a resident page
// no write can reach.
func TestDepTableHoldsResidentLinks(t *testing.T) {
	modes := []struct {
		name  string
		opts  func(t *testing.T) Options
		evict bool
	}{
		{"unbounded", func(*testing.T) Options { return Options{} }, false},
		{"slru", func(*testing.T) Options { return Options{MaxBytes: 12 << 10} }, true},
		{"slru+tinylfu", func(*testing.T) Options { return Options{MaxBytes: 12 << 10, Admission: true} }, true},
		{"slru+l2", func(t *testing.T) Options {
			return Options{MaxBytes: 12 << 10, L2: newL2Store(t, t.TempDir(), 16<<10)}
		}, true},
	}
	const (
		keys    = 48
		rounds  = 12
		workers = 4
		ops     = 150
	)
	for mi, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			c := newTestCache(t, m.opts(t))
			defer c.Close()
			for round := 0; round < rounds; round++ {
				var wg sync.WaitGroup
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(seed))
						for n := 0; n < ops; n++ {
							key := fmt.Sprintf("/dl?k=%d", rng.Intn(keys))
							switch op := rng.Intn(20); {
							case op < 9:
								c.Lookup(key)
							case op < 17:
								body := []byte(strings.Repeat("x", 300+rng.Intn(700)))
								c.Insert(key, body, "text/html", randDeps(rng), 0)
							case op < 19:
								if _, err := c.InvalidateWrite(randSweep(rng)); err != nil {
									t.Error(err)
								}
							default:
								c.InvalidateKey(key)
							}
						}
					}(int64(mi*1000 + round*workers + g))
				}
				wg.Wait()
				wantT, wantI := residentLinks(c)
				if st := c.Snapshot(); st.DepTemplates != wantT || st.DepInstances != wantI {
					t.Fatalf("round %d: dependency table holds %d templates, %d instances; residents link %d, %d (%+v)",
						round, st.DepTemplates, st.DepInstances, wantT, wantI, st)
				}
			}
			st := c.Snapshot()
			if st.Invalidations == 0 || (m.evict && st.Evictions == 0) {
				t.Fatalf("the mix never exercised the removal paths under test: %+v", st)
			}
			if c.opts.L2 != nil && (st.Demotions == 0 || st.L2.Hits == 0) {
				t.Fatalf("the mix never moved entries between tiers: %+v", st)
			}
		})
	}
}

// TestFreshInsertUnlinksRetiredTierCopy: a fresh insert of a key whose older
// generation sits in the disk tier retires that copy, and with it the copy's
// dependency links — otherwise the old generation's instances stay linked to
// the key for good, since removing the new generation unlinks only its own.
func TestFreshInsertUnlinksRetiredTierCopy(t *testing.T) {
	c := newTestCache(t, Options{MaxBytes: 2 << 10, L2: newL2Store(t, t.TempDir(), 0)})
	defer c.Close()
	body := []byte(strings.Repeat("x", 900))
	c.Insert("/k", body, "text/html", []analysis.Query{dep("SELECT a FROM dl0 WHERE b = ?", int64(1))}, 0)
	c.Insert("/filler1", body, "text/html", []analysis.Query{dep("SELECT a FROM dl1")}, 0)
	c.Insert("/filler2", body, "text/html", []analysis.Query{dep("SELECT a FROM dl1")}, 0)
	if c.Contains("/k") || !inTier(c.opts.L2, "/k") {
		t.Fatal("setup: /k was not demoted to the disk tier")
	}
	c.Insert("/k", body, "text/html", []analysis.Query{dep("SELECT a FROM dl0 WHERE b = ?", int64(2))}, 0)
	wantT, wantI := residentLinks(c)
	if st := c.Snapshot(); st.DepTemplates != wantT || st.DepInstances != wantI {
		t.Fatalf("dependency table holds %d templates, %d instances; residents link %d, %d",
			st.DepTemplates, st.DepInstances, wantT, wantI)
	}
}

// TestForgetKeepsCurrentGenerationLinks replays the window between the disk
// tier dropping a key's record (a budget drop inside another key's
// demotion) and forget unlinking the record's dependencies: meanwhile the
// key came back with other deps, resident in L1 or demoted again. forget
// must unlink the dropped generation's links and keep the current one's.
func TestForgetKeepsCurrentGenerationLinks(t *testing.T) {
	old := []analysis.Query{dep("SELECT a FROM dl0 WHERE b = ?", int64(1)), dep("SELECT a FROM dl1")}
	cur := []analysis.Query{dep("SELECT a FROM dl0 WHERE b = ?", int64(2)), dep("SELECT a FROM dl1")}
	body := []byte(strings.Repeat("x", 900))
	for _, where := range []string{"l1", "l2"} {
		t.Run(where, func(t *testing.T) {
			c := newTestCache(t, Options{MaxBytes: 2 << 10, L2: newL2Store(t, t.TempDir(), 0)})
			defer c.Close()
			evictK := func() {
				c.Insert("/filler1", body, "text/html", nil, 0)
				c.Insert("/filler2", body, "text/html", nil, 0)
				if c.Contains("/k") || !inTier(c.opts.L2, "/k") {
					t.Fatal("setup: /k was not demoted to the disk tier")
				}
			}
			c.Insert("/k", body, "text/html", old, 0)
			evictK()
			dropped, _ := c.opts.L2.Remove("/k") // the tier lets the record go
			c.Insert("/k", body, "text/html", cur, 0)
			if where == "l2" {
				evictK()
			}
			c.forget([]l2.Dropped{{Key: "/k", Deps: dropped}})
			wantT, wantI := residentLinks(c)
			if st := c.Snapshot(); st.DepTemplates != wantT || st.DepInstances != wantI {
				t.Fatalf("dependency table holds %d templates, %d instances; residents link %d, %d",
					st.DepTemplates, st.DepInstances, wantT, wantI)
			}
			if n, err := c.InvalidateWrite(wcap("UPDATE dl1 SET a = ?", int64(1))); err != nil || n == 0 {
				t.Fatalf("the shared instance lost /k's link: removed %d, err %v", n, err)
			}
		})
	}
}

// TestTemplateOutlivesItsPages: a read template stays in the dependency
// table and on its write templates' lists after its last page goes, and its
// next page refills the same template — registered once, its pairs decided
// once — while DepTemplates counts only templates holding a page.
func TestTemplateOutlivesItsPages(t *testing.T) {
	c := newTestCache(t, Options{})
	const tmpl = "SELECT a FROM T WHERE b = ?"
	w := wcap("UPDATE T SET a = ? WHERE b = ?", int64(0), int64(2))
	pw, err := c.opts.Engine.PrepareWrite(w)
	if err != nil {
		t.Fatal(err)
	}
	templates := func(want int) {
		t.Helper()
		if st := c.Snapshot(); st.DepTemplates != want {
			t.Fatalf("DepTemplates = %d, want %d: %+v", st.DepTemplates, want, st)
		}
	}
	ds := c.depShard(tmpl)
	c.Insert("/p1", []byte("v"), "text/html", []analysis.Query{dep(tmpl, int64(1))}, 0)
	templates(1)
	// The write misses /p1 but builds its template's list, which reaches T.
	if n, err := c.InvalidateWrite(w); err != nil || n != 0 {
		t.Fatalf("setup sweep removed %d pages, err %v", n, err)
	}
	first := ds.deps[tmpl]
	if !c.InvalidateKey("/p1") {
		t.Fatal("setup: /p1 was not resident")
	}
	templates(0)
	c.Insert("/p2", []byte("v"), "text/html", []analysis.Query{dep(tmpl, int64(3))}, 0)
	templates(1)
	if again := ds.deps[tmpl]; first == nil || again != first {
		t.Fatalf("template %p was replaced by %p when it emptied and filled again", first, again)
	}
	on := 0
	for _, dt := range c.reach.Touched(pw) {
		if dt == first {
			on++
		}
	}
	if on != 1 {
		t.Fatalf("the write's list holds the template %d times, want once", on)
	}
}

// TestEmptiedUnparseableTemplateFailsNoSweep: a sweep that reaches an
// unparseable read template fails while the template holds a page — it
// cannot tell which pages the write touches — and succeeds once the page
// is gone, although the template stays on the write's list.
func TestEmptiedUnparseableTemplateFailsNoSweep(t *testing.T) {
	c := newTestCache(t, Options{})
	w := wcap("UPDATE T SET a = ? WHERE b = ?", int64(0), int64(1))
	c.Insert("/bad", []byte("v"), "text/html", []analysis.Query{dep("SELECT FROM WHERE")}, 0)
	if _, err := c.InvalidateWrite(w); err == nil {
		t.Fatal("a sweep reaching an unparseable template's page succeeded")
	}
	c.InvalidateKey("/bad")
	if _, err := c.InvalidateWrite(w); err != nil {
		t.Fatalf("a sweep reaching the emptied unparseable template failed: %v", err)
	}
}

// TestRefillRacesSweep races a template emptying and filling again against
// an intersecting write: one goroutine removes the template's only page and
// re-inserts it with InsertSince from an epoch read before the write began,
// the other sweeps. Whichever order they take — the sweep reading the
// template's list before, between or after the removal and the refill — the
// write raced the insert, so the page must not outlive it, and the table
// must end holding exactly the residents' links with the template on the
// write's list once.
func TestRefillRacesSweep(t *testing.T) {
	c := newTestCache(t, Options{})
	const (
		tmpl   = "SELECT a FROM T WHERE b = ?"
		key    = "/refill"
		rounds = 200
	)
	deps := []analysis.Query{dep(tmpl, int64(1))}
	w := wcap("UPDATE T SET a = ? WHERE b = ?", int64(0), int64(1))
	for r := 0; r < rounds; r++ {
		c.Insert(key, []byte("v"), "text/html", deps, 0)
		epoch0 := c.Epoch()
		var wg sync.WaitGroup
		start := make(chan struct{})
		refill := func() {
			defer wg.Done()
			<-start
			c.InvalidateKey(key)
			c.InsertSince(epoch0, key, []byte("v"), "text/html", deps, 0)
		}
		write := func() {
			defer wg.Done()
			<-start
			if _, err := c.InvalidateWrite(w); err != nil {
				t.Error(err)
			}
		}
		wg.Add(2)
		if r%2 == 0 {
			go refill()
			go write()
		} else {
			go write()
			go refill()
		}
		close(start)
		wg.Wait()
		if c.Contains(key) {
			t.Fatalf("round %d: page outlived the write that raced its refill", r)
		}
		wantT, wantI := residentLinks(c)
		if st := c.Snapshot(); st.DepTemplates != wantT || st.DepInstances != wantI {
			t.Fatalf("round %d: dependency table holds %d templates, %d instances; residents link %d, %d",
				r, st.DepTemplates, st.DepInstances, wantT, wantI)
		}
	}
	pw, err := c.opts.Engine.PrepareWrite(w)
	if err != nil {
		t.Fatal(err)
	}
	if list := c.reach.Touched(pw); len(list) != 1 || list[0] != c.depShard(tmpl).deps[tmpl] {
		t.Fatalf("after %d refills the write's list is %v, want the one template", rounds, list)
	}
}
