package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
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
			next := 0
			insert := func(pool []string) {
				deps := make([]analysis.Query, 1+rng.Intn(3))
				for i := range deps {
					samples := m.reads[pool[rng.Intn(len(pool))]]
					deps[i] = samples[rng.Intn(len(samples))]
				}
				key := fmt.Sprintf("/page?n=%d", next)
				next++
				c.Insert(key, []byte("x"), "text/html", deps, 0)
				resident[key] = deps
			}
			// intersects is the brute-force verdict for one dependency.
			intersects := func(d analysis.Query, w analysis.WriteCapture) bool {
				dep, err := eng.PossiblyDependent(d.SQL, w.SQL)
				if err != nil {
					t.Fatal(err)
				}
				hit, err := eng.Intersects(d, w)
				if err != nil {
					t.Fatal(err)
				}
				return dep && hit
			}
			lateRemovals, refillRemovals := 0, 0
			refilling := false
			sweep := func(w analysis.WriteCapture) {
				if strategy != analysis.StrategyExtraQuery {
					w.Affected = nil // only ExtraQuery captures the pre-write rows
				}
				want := make(map[string]bool)
				for key, deps := range resident {
					for _, d := range deps {
						if intersects(d, w) {
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
				for key := range want {
					delete(resident, key)
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
				delete(resident, key)
			}
			if st := c.Snapshot(); st.Entries != 0 || st.DepTemplates != 0 || st.DepInstances != 0 {
				t.Fatalf("dropping every page left %d entries, %d templates, %d instances", st.Entries, st.DepTemplates, st.DepInstances)
			}
			refilling = true
			mixed(400)
			if refillRemovals == 0 {
				t.Fatal("no page inserted after every template emptied was removed: the test lost its coverage")
			}
		})
	}
}
