// Package telemetry is a dependency-free metrics registry rendering the
// Prometheus text exposition format (version 0.0.4) — the production
// observability substrate under both servers' /metrics endpoints.
//
// It exists because this repository must not pull external modules. It
// exports metrics one way only: snapshot collectors (Registry.Collect). A
// layer keeps its own atomic counters as the single source of truth, and a
// collector reads a snapshot of them at scrape time and declares and emits
// every family from it — instrumentation without a second set of books. A
// series holds either one value (counter or gauge) or one HistSnapshot.
//
// DurationHist is the one instrument the package provides: a fixed-bucket,
// integer-nanosecond, atomics-only histogram the request hot paths can
// observe into with zero allocations and no label lookups. Its owner
// exports it through a collector like any other counter.
//
// ParseText is the matching validator/parser: tests round-trip every scrape
// through it, the load generator uses it to fold a /metrics scrape into its
// run report, and cmd/metricsdoc uses Registry.Families to generate
// docs/METRICS.md so the documentation can never drift from the registry.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Type classifies a metric family.
type Type uint8

// Family types (the TYPE line of the text format).
const (
	TypeCounter Type = iota
	TypeGauge
	TypeHistogram
)

// String returns the text-format type keyword.
func (t Type) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	}
	return "untyped"
}

// HistSnapshot is a point-in-time copy of a histogram: per-bucket
// (non-cumulative) counts aligned with Bounds, plus the bucket beyond the
// last bound (the +Inf bucket), the total count and the sum of
// observations. Bounds is shared and must be treated read-only.
type HistSnapshot struct {
	Bounds  []float64 // upper bounds; len(Buckets) == len(Bounds)+1
	Buckets []uint64
	Count   uint64
	Sum     float64
}

// Merge adds o's buckets into s (for totals across handlers). Both must
// share the same bounds; a zero-value s adopts o's shape.
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if s.Buckets == nil {
		s.Bounds = o.Bounds
		s.Buckets = append([]uint64(nil), o.Buckets...)
		s.Count = o.Count
		s.Sum = o.Sum
		return
	}
	for i := range s.Buckets {
		if i < len(o.Buckets) {
			s.Buckets[i] += o.Buckets[i]
		}
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// series is one labelled sample stream within a family: a counter or gauge
// value, or (hist != nil) a histogram snapshot.
type series struct {
	labels string // pre-rendered {k="v",...}, "" for none
	value  float64
	hist   *HistSnapshot
}

// family is one metric family: a name, help, type and its series. A family
// lives for one scrape and is only touched by the goroutine gathering it.
type family struct {
	name       string
	help       string
	typ        Type
	labelNames []string
	series     map[string]*series // by label values joined with \xff
}

// Registry holds the snapshot collectors and renders their families in the
// Prometheus text format. The Gatherer methods a collector calls panic on
// programmer error (invalid names, conflicting re-declarations, label arity
// mismatches) — a bad wiring must fail loudly, at the first scrape.
type Registry struct {
	mu         sync.Mutex
	collectors []func(*Gatherer)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

var (
	nameRe  = mustMatcher(isNameStart, isNameRune)
	labelRe = mustMatcher(isLabelStart, isLabelRune)
)

func isNameStart(r byte) bool {
	return r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
}
func isNameRune(r byte) bool { return isNameStart(r) || (r >= '0' && r <= '9') }
func isLabelStart(r byte) bool {
	return r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
}
func isLabelRune(r byte) bool { return isLabelStart(r) || (r >= '0' && r <= '9') }

type matcher struct{ start, rest func(byte) bool }

func mustMatcher(start, rest func(byte) bool) matcher { return matcher{start, rest} }

func (m matcher) ok(s string) bool {
	if s == "" || !m.start(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !m.rest(s[i]) {
			return false
		}
	}
	return true
}

// addSeries returns (creating if needed) the series for one label-value
// set.
func (f *family) addSeries(labelValues []string) *series {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %s: %d label values for %d label names",
			f.name, len(labelValues), len(f.labelNames)))
	}
	key := strings.Join(labelValues, "\xff")
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labels: renderLabels(f.labelNames, labelValues)}
	f.series[key] = s
	return s
}

// renderLabels renders a {k="v",...} block ("" when empty).
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// Collect registers a snapshot collector: fn runs at every scrape and
// declares + emits families from a point-in-time snapshot of some layer's
// own counters. Collected families live only for the scrape.
func (r *Registry) Collect(fn func(*Gatherer)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// FamilyMeta describes one metric family for documentation generation.
type FamilyMeta struct {
	Name   string
	Type   Type
	Help   string
	Labels []string
}

// Families returns every family the registry would expose, sorted by name.
// It runs the collectors.
func (r *Registry) Families() []FamilyMeta {
	fams := r.gather()
	out := make([]FamilyMeta, 0, len(fams))
	for _, f := range fams {
		out = append(out, FamilyMeta{Name: f.name, Type: f.typ, Help: f.help, Labels: f.labelNames})
	}
	return out
}

// gather runs one collector pass, returning its families sorted by name.
func (r *Registry) gather() []*family {
	r.mu.Lock()
	collectors := append([]func(*Gatherer){}, r.collectors...)
	r.mu.Unlock()
	g := &Gatherer{fams: make(map[string]*family)}
	for _, fn := range collectors {
		fn(g)
	}
	fams := make([]*family, 0, len(g.fams))
	for _, f := range g.fams {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
