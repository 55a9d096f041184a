package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/datasource"
)

// TestSweepMatchesBruteForce: a write sweep must remove exactly the pages a
// brute-force scan of the cache finds — every page holding a dependency d
// with PossiblyDependent(d.SQL, w.SQL) and Intersects(d, w) both true —
// whatever shortcuts the sweep takes to reach them (each write template's
// list of read templates, the probe buckets, the template-level exclusion).
// RUBiS's read instances and write captures come from the dependency-matrix
// drive. Pages are inserted and writes swept in a seeded interleaving under
// each strategy, in three phases: the first inserts pages of half the read
// templates only and sweeps every write template, so the second phase's
// read templates appear after the write templates that can touch them were
// already swept; then every page is dropped, so every template empties, and
// the third phase fills them again under the lists the first two built.
//
// The sampled read instances carry the windows their runs showed, and a
// quarter of the dependencies are inserted without one, as a page from a
// peer or the disk tier arrives: an instance judges its pages by its
// window only while every page linked to it showed that window. The sweep
// counts the candidates their windows spared: at least every instance the
// value test alone would have removed, at most every dependent one.
func TestSweepMatchesBruteForce(t *testing.T) {
	a := rubisMatrixApp(t)
	m := driveMatrix(t, a)
	var readSQL, writeSQL []string
	for sql := range m.reads {
		readSQL = append(readSQL, sql)
	}
	for sql := range m.writes {
		writeSQL = append(writeSQL, sql)
	}
	sort.Strings(readSQL)
	sort.Strings(writeSQL)
	var early []string
	late := make(map[string]bool)
	for i, sql := range readSQL {
		if i%2 == 0 {
			early = append(early, sql)
		} else {
			late[sql] = true
		}
	}
	for _, strategy := range []analysis.Strategy{analysis.StrategyColumnOnly, analysis.StrategyWhereMatch, analysis.StrategyExtraQuery} {
		t.Run(strategy.String(), func(t *testing.T) {
			eng, err := analysis.NewEngine(strategy, a.db)
			if err != nil {
				t.Fatal(err)
			}
			c, err := cache.New(cache.Options{Engine: eng})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(strategy)*1009 + 11))
			resident := make(map[string][]analysis.Query)
			// windows models each dependency instance's window: the one its
			// first page showed, nil once a page showing another linked.
			type instance struct {
				win   *analysis.Window
				pages int
			}
			windows := make(map[string]*instance)
			instKey := func(d analysis.Query) string { return d.SQL + "\x00" + datasource.KeyOfValues(d.Args) }
			next := 0
			insert := func(pool []string) {
				deps := make([]analysis.Query, 1+rng.Intn(3))
				for i := range deps {
					samples := m.reads[pool[rng.Intn(len(pool))]]
					deps[i] = samples[rng.Intn(len(samples))]
					if rng.Intn(4) == 0 {
						deps[i].Window = nil
					}
				}
				deps = analysis.DedupQueries(deps)
				key := fmt.Sprintf("/page?n=%d", next)
				next++
				c.Insert(key, []byte("x"), "text/html", deps, 0)
				resident[key] = deps
				for _, d := range deps {
					in := windows[instKey(d)]
					if in == nil {
						in = &instance{win: d.Window}
						windows[instKey(d)] = in
					} else if !in.win.Same(d.Window) {
						in.win = nil
					}
					in.pages++
				}
			}
			drop := func(key string) {
				for _, d := range resident[key] {
					in := windows[instKey(d)]
					if in.pages--; in.pages == 0 {
						delete(windows, instKey(d))
					}
				}
				delete(resident, key)
			}
			// verdict is the brute-force verdict for one dependency, judged
			// by its instance's window: hit; spared by the window; and
			// spared by it although the value test alone would remove it.
			verdict := func(d analysis.Query, w analysis.WriteCapture) (hit, spared, needed bool) {
				dep, err := eng.PossiblyDependent(d.SQL, w.SQL)
				if err != nil {
					t.Fatal(err)
				}
				if !dep {
					return false, false, false
				}
				pw, err := eng.PrepareWrite(w)
				if err != nil {
					t.Fatal(err)
				}
				ri, err := eng.Template(d.SQL)
				if err != nil {
					t.Fatal(err)
				}
				hit, spared = pw.IntersectsDependent(ri, d.Args, windows[instKey(d)].win)
				plain, _ := pw.IntersectsDependent(ri, d.Args, nil)
				return hit, spared, spared && plain
			}
			lateRemovals, refillRemovals, windowSpared := 0, 0, 0
			refilling := false
			sweep := func(w analysis.WriteCapture) {
				if strategy != analysis.StrategyExtraQuery {
					w.Affected = nil // only ExtraQuery captures the pre-write rows
				}
				want := make(map[string]bool)
				spared, needed := make(map[string]bool), make(map[string]bool)
				for _, deps := range resident {
					for _, d := range deps {
						if _, byWindow, wasNeeded := verdict(d, w); byWindow {
							spared[instKey(d)] = true
							if wasNeeded {
								needed[instKey(d)] = true
							}
						}
					}
				}
				sparedBefore := c.Snapshot().WindowSpared
				for key, deps := range resident {
					for _, d := range deps {
						if hit, _, _ := verdict(d, w); hit {
							want[key] = true
							if late[d.SQL] {
								lateRemovals++
							}
							if refilling {
								refillRemovals++
							}
							break
						}
					}
				}
				n, err := c.InvalidateWrite(w)
				if err != nil {
					t.Fatal(err)
				}
				var missed, extra []string
				for key := range resident {
					switch gone := !c.Contains(key); {
					case gone && !want[key]:
						extra = append(extra, key)
					case !gone && want[key]:
						missed = append(missed, key)
					}
				}
				if len(missed) > 0 || len(extra) > 0 || n != len(want) {
					t.Fatalf("%s %v: removed %d pages, brute force wants %d; kept %v, removed beyond %v",
						w.SQL, w.Args, n, len(want), missed, extra)
				}
				if got := c.Snapshot().WindowSpared - sparedBefore; got < uint64(len(needed)) || got > uint64(len(spared)) {
					t.Fatalf("%s %v: the sweep spared %d instances by their windows, brute force %d to %d",
						w.SQL, w.Args, got, len(needed), len(spared))
				}
				windowSpared += len(needed)
				for key := range want {
					drop(key)
				}
			}
			for i := 0; i < 100; i++ {
				insert(early)
			}
			for _, sql := range writeSQL {
				sweep(m.writes[sql][0])
			}
			mixed := func(steps int) {
				for step := 0; step < steps; step++ {
					insert(readSQL)
					insert(readSQL)
					samples := m.writes[writeSQL[rng.Intn(len(writeSQL))]]
					sweep(samples[rng.Intn(len(samples))])
				}
			}
			mixed(400)
			if lateRemovals == 0 {
				t.Fatal("no page of a read template first seen after its write template was swept was removed: the test lost its coverage")
			}
			for key := range resident {
				c.InvalidateKey(key)
				drop(key)
			}
			if st := c.Snapshot(); st.Entries != 0 || st.DepTemplates != 0 || st.DepInstances != 0 {
				t.Fatalf("dropping every page left %d entries, %d templates, %d instances", st.Entries, st.DepTemplates, st.DepInstances)
			}
			refilling = true
			mixed(400)
			if refillRemovals == 0 {
				t.Fatal("no page inserted after every template emptied was removed: the test lost its coverage")
			}
			if (windowSpared == 0) != (strategy == analysis.StrategyColumnOnly) {
				t.Fatalf("%d instances spared by their windows under %s", windowSpared, strategy)
			}
		})
	}
}
