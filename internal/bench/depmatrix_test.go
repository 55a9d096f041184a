package bench

// The §3.2 dependency matrix of both applications, computed and committed:
// which write templates can remove which read interactions' pages, which
// writes the analysis refuses (the weave flushes the whole cache on each),
// and which read templates no write can touch. The engine decides template
// pairs lazily at run time; this test drives every interaction until no new
// template appears and renders the result as a golden file, so a change to
// the analysis, the SQL parser or a handler's SQL that widens or narrows
// invalidation shows as a reviewed diff.

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"

	"autowebcache/internal/analysis"
	"autowebcache/internal/cache"
	"autowebcache/internal/datasource"
	"autowebcache/internal/memdb"
	"autowebcache/internal/rubis"
	"autowebcache/internal/servlet"
	"autowebcache/internal/tpcw"
	"autowebcache/internal/weave"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the dependency-matrix goldens under internal/rubis/testdata and internal/tpcw/testdata")

// matrixSamples caps the distinct instances kept per template for the
// strategy classification; the drive is sequential and seeded, so the kept
// set is deterministic.
const matrixSamples = 12

// matrixApp is one application wired for the matrix drive.
type matrixApp struct {
	name     string
	golden   string
	db       *memdb.DB
	eng      *analysis.Engine
	handlers []servlet.HandlerInfo
	rules    weave.Rules
	// entries build one request target per mix entry; request draws a
	// weighted one.
	entries []func(rng *rand.Rand, client int) string
	request func(rng *rand.Rand, client int) (name, target string)
	// queryFree names the pages that issue no query at all (static
	// navigation and form pages); every other handler must contribute a
	// template.
	queryFree map[string]bool
}

func rubisMatrixApp(t *testing.T) *matrixApp {
	scale := rubis.Scale{Regions: 3, Categories: 5, Users: 20, Items: 40,
		BidsPerItem: 3, CommentsPerUser: 2, BuyNows: 10, Seed: 7}
	db := memdb.New()
	last, err := rubis.Load(db, scale)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	mix := rubis.BiddingMix(scale)
	a := &matrixApp{
		name: "RUBiS", golden: "../rubis/testdata/dependency_matrix.txt",
		db: db, eng: eng,
		handlers: rubis.New(weave.NewConn(db, eng), scale, last).Handlers(),
		request:  mix.Request,
		queryFree: map[string]bool{"Home": true, "Browse": true, "Sell": true, "RegisterUserForm": true,
			"PutBidAuth": true, "PutCommentAuth": true, "BuyNowAuth": true},
	}
	for _, e := range mix {
		a.entries = append(a.entries, e.Make)
	}
	return a
}

func tpcwMatrixApp(t *testing.T) *matrixApp {
	scale := tpcw.Scale{Items: 60, Authors: 15, Customers: 20, Orders: 30,
		LinesPerOrder: 3, Countries: 5, Seed: 3}
	db := memdb.New()
	last, err := tpcw.Load(db, scale)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := analysis.NewEngine(analysis.StrategyExtraQuery, db)
	if err != nil {
		t.Fatal(err)
	}
	mix := tpcw.ShoppingMix(scale)
	a := &matrixApp{
		name: "TPC-W", golden: "../tpcw/testdata/dependency_matrix.txt",
		db: db, eng: eng,
		handlers:  tpcw.New(weave.NewConn(db, eng), scale, last).Handlers(),
		rules:     tpcw.WeaveRules(0),
		request:   mix.Request,
		queryFree: map[string]bool{"SearchRequest": true, "OrderInquiry": true},
	}
	for _, e := range mix {
		a.entries = append(a.entries, e.Make)
	}
	return a
}

// depMatrix is what the drive observed.
type depMatrix struct {
	served map[string]int
	// templates: handler -> every read and write template it issued.
	templates map[string]map[string]bool
	// readers: read template -> the read (page-producing) handlers issuing it.
	readers map[string]map[string]bool
	// reads and writes hold up to matrixSamples distinct instances per
	// template, in the order first seen.
	reads  map[string][]analysis.Query
	writes map[string][]analysis.WriteCapture
	// refused are the write templates PrepareWrite rejects, plus "" for a
	// statement the recorder could not template at all.
	refused map[string]bool
}

func (m *depMatrix) size() int {
	n := 0
	for _, ts := range m.templates {
		n += len(ts)
	}
	return n
}

// record files one request's recorder under its handler.
func (m *depMatrix) record(eng *analysis.Engine, h servlet.HandlerInfo, rec *weave.Recorder) {
	m.served[h.Name]++
	for _, q := range rec.Reads() {
		m.templates[h.Name][q.SQL] = true
		if h.Write {
			continue // a write interaction's page is never cached
		}
		if m.readers[q.SQL] == nil {
			m.readers[q.SQL] = make(map[string]bool)
		}
		m.readers[q.SQL][h.Name] = true
		if sampleNew(m.reads[q.SQL], q) {
			m.reads[q.SQL] = append(m.reads[q.SQL], q)
		}
	}
	for _, w := range rec.Writes() {
		if w.SQL == "" {
			m.refused[""] = true
			continue
		}
		m.templates[h.Name][w.SQL] = true
		if _, err := eng.PrepareWrite(w); err != nil {
			m.refused[w.SQL] = true
			continue
		}
		if sampleNew(writeQueries(m.writes[w.SQL]), w.Query) {
			m.writes[w.SQL] = append(m.writes[w.SQL], w)
		}
	}
}

func writeQueries(ws []analysis.WriteCapture) []analysis.Query {
	qs := make([]analysis.Query, len(ws))
	for i, w := range ws {
		qs[i] = w.Query
	}
	return qs
}

// sampleNew reports whether q's value vector is not yet among the kept
// instances and there is room for it.
func sampleNew(kept []analysis.Query, q analysis.Query) bool {
	if len(kept) >= matrixSamples {
		return false
	}
	key := datasource.KeyOfValues(q.Args)
	for _, k := range kept {
		if datasource.KeyOfValues(k.Args) == key {
			return false
		}
	}
	return true
}

// driveMatrix serves the application through a woven stack whose cache
// misses every lookup, so every request runs its handler under the weave's
// Recorder. Each round requests every mix entry once, then draws weighted
// requests, over a few client sessions so that session state builds up (a
// cart filled, then bought); it stops after quiet consecutive rounds that
// add no (handler, template) pair.
func driveMatrix(t *testing.T, a *matrixApp) *depMatrix {
	m := &depMatrix{
		served:    make(map[string]int),
		templates: make(map[string]map[string]bool),
		readers:   make(map[string]map[string]bool),
		reads:     make(map[string][]analysis.Query),
		writes:    make(map[string][]analysis.WriteCapture),
		refused:   make(map[string]bool),
	}
	handlers := make([]servlet.HandlerInfo, len(a.handlers))
	for i, h := range a.handlers {
		m.templates[h.Name] = make(map[string]bool)
		fn := h.Fn
		h.Fn = func(rw http.ResponseWriter, r *http.Request) {
			fn(rw, r)
			rec, ok := weave.RecorderFrom(r.Context())
			if !ok {
				t.Errorf("%s ran without a recorder", h.Name)
				return
			}
			m.record(a.eng, h, rec)
		}
		handlers[i] = h
	}
	c, err := cache.New(cache.Options{Engine: a.eng, ForceMiss: true})
	if err != nil {
		t.Fatal(err)
	}
	woven, err := weave.New(handlers, c, a.rules)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(target string) {
		woven.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, target, nil))
	}
	rng := rand.New(rand.NewSource(17))
	const maxRounds, quiet, draws, sessions = 40, 3, 200, 4
	for round, still := 0, 0; still < quiet; round++ {
		if round == maxRounds {
			t.Fatalf("%s: templates still appearing after %d rounds", a.name, maxRounds)
		}
		before := m.size()
		for i, mk := range a.entries {
			serve(mk(rng, i%sessions))
		}
		for n := 0; n < draws; n++ {
			_, target := a.request(rng, n%sessions)
			serve(target)
		}
		if still++; m.size() != before {
			still = 0
		}
	}
	return m
}

// Strategy classes of a dependent (write, read) template pair: the
// coarsest analysis that still spared some sampled read instance from some
// sampled write.
const (
	classWhereMatch = "wm"  // the write's bound values decide
	classExtraQuery = "eq"  // only the pre-write rows decide
	classColumnOnly = "col" // nothing below table level decides
)

var classRank = map[string]int{classWhereMatch: 0, classExtraQuery: 1, classColumnOnly: 2}

// classify decides a dependent pair on the sampled instances: WhereMatch
// sees the write without its pre-write rows, ExtraQuery with them.
func classify(t *testing.T, wm, eq *analysis.Engine, reads []analysis.Query, writes []analysis.WriteCapture) string {
	spares := func(eng *analysis.Engine, strip bool) bool {
		for _, w := range writes {
			if strip {
				w.Affected = nil
			}
			pw, err := eng.PrepareWrite(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range reads {
				hit, err := pw.Intersects(r)
				if err != nil {
					t.Fatal(err)
				}
				if !hit {
					return true
				}
			}
		}
		return false
	}
	switch {
	case spares(wm, true):
		return classWhereMatch
	case spares(eq, false):
		return classExtraQuery
	default:
		return classColumnOnly
	}
}

// renderMatrix writes the golden text: one line per write template with
// the read handlers whose pages it can remove, each tagged with the class
// that spares that page (the coarsest over the handler's dependent read
// templates), then the refused writes and the untouched read templates.
func renderMatrix(t *testing.T, a *matrixApp, m *depMatrix) string {
	wm, err := analysis.NewEngine(analysis.StrategyWhereMatch, a.db)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s dependency matrix (§3.2). Regenerate with\n", a.name)
	b.WriteString("#   go test ./internal/bench -run TestDependencyMatrix -update-golden\n")
	b.WriteString("# Each write template lists the read handlers whose pages it can remove,\n")
	b.WriteString("# tagged with what spares a page on the sampled instances: wm = WhereMatch's\n")
	b.WriteString("# bound values, eq = only ExtraQuery's pre-write rows, col = nothing (the page\n")
	b.WriteString("# always goes).\n")
	touched := make(map[string]bool)
	for _, wsql := range sortedKeys(m.writes) {
		tags := make(map[string]string)
		for _, rsql := range sortedKeys(m.reads) {
			dep, err := a.eng.PossiblyDependent(rsql, wsql)
			if err != nil {
				t.Fatal(err)
			}
			if !dep {
				continue
			}
			touched[rsql] = true
			class := classify(t, wm, a.eng, m.reads[rsql], m.writes[wsql])
			for h := range m.readers[rsql] {
				if old, ok := tags[h]; !ok || classRank[class] > classRank[old] {
					tags[h] = class
				}
			}
		}
		fmt.Fprintf(&b, "\n%s\n  =>", wsql)
		if len(tags) == 0 {
			b.WriteString(" (none)")
		}
		for _, h := range sortedKeys(tags) {
			fmt.Fprintf(&b, " %s[%s]", h, tags[h])
		}
		b.WriteString("\n")
	}
	b.WriteString("\nrefused writes:\n")
	if len(m.refused) == 0 {
		b.WriteString("  (none)\n")
	}
	for _, wsql := range sortedKeys(m.refused) {
		fmt.Fprintf(&b, "  %q\n", wsql)
	}
	b.WriteString("\nuntouched reads:\n")
	for _, rsql := range sortedKeys(m.reads) {
		if !touched[rsql] {
			fmt.Fprintf(&b, "  %s\n    (%s)\n", rsql, strings.Join(sortedKeys(m.readers[rsql]), ", "))
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestDependencyMatrix pins the dependency matrix of each application to
// its golden file, requires the analysis to accept every write template
// (a refused one flushes the whole cache on every such write), and checks,
// one subtest per handler, that the drive reached the handler and that it
// contributed a template — or, for a page listed as query-free, none.
func TestDependencyMatrix(t *testing.T) {
	for _, build := range []func(*testing.T) *matrixApp{rubisMatrixApp, tpcwMatrixApp} {
		a := build(t)
		t.Run(a.name, func(t *testing.T) {
			m := driveMatrix(t, a)
			got := renderMatrix(t, a, m)
			if *updateGolden {
				if err := os.WriteFile(a.golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(a.golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("dependency matrix moved; review the diff and regenerate %s with -update-golden.\ngot:\n%s", a.golden, got)
			}
			if len(m.refused) > 0 {
				t.Errorf("the analysis refuses write templates %q: every such write flushes the whole cache", sortedKeys(m.refused))
			}
			for _, h := range a.handlers {
				t.Run(h.Name, func(t *testing.T) {
					if m.served[h.Name] == 0 {
						t.Fatal("never served: the mix has no entry for it")
					}
					n := len(m.templates[h.Name])
					switch {
					case a.queryFree[h.Name] && n > 0:
						t.Fatalf("listed as query-free but issued %d templates", n)
					case !a.queryFree[h.Name] && n == 0:
						t.Fatal("contributed no template")
					}
				})
			}
		})
	}
}
