package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
)

// Gatherer receives a snapshot collector's output for one scrape. A
// collector must Declare every family before emitting samples into it;
// declaration order fixes nothing (families render name-sorted) but the
// metadata it carries — type, help, label names — is what Families and the
// docs generator see, so it must be complete.
type Gatherer struct {
	fams map[string]*family
}

// Declare registers a family for this scrape. Declaring the same name twice
// with identical metadata is a no-op (collectors for N cluster nodes in one
// process may share family names); conflicting metadata panics.
func (g *Gatherer) Declare(name string, typ Type, help string, labelNames ...string) {
	if f, ok := g.fams[name]; ok {
		if f.typ != typ || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("telemetry: family %q re-declared with different shape", name))
		}
		for i, l := range labelNames {
			if f.labelNames[i] != l {
				panic(fmt.Sprintf("telemetry: family %q re-declared with different labels", name))
			}
		}
		return
	}
	if !nameRe.ok(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !labelRe.ok(l) {
			panic(fmt.Sprintf("telemetry: metric %s: invalid label name %q", name, l))
		}
	}
	g.fams[name] = &family{name: name, help: help, typ: typ,
		labelNames: append([]string(nil), labelNames...),
		series:     make(map[string]*series)}
}

func (g *Gatherer) mustFamily(name string) *family {
	f, ok := g.fams[name]
	if !ok {
		panic(fmt.Sprintf("telemetry: sample for undeclared family %q", name))
	}
	return f
}

// Value emits one counter or gauge sample.
func (g *Gatherer) Value(name string, v float64, labelValues ...string) {
	f := g.mustFamily(name)
	if f.typ == TypeHistogram {
		panic(fmt.Sprintf("telemetry: Value on histogram family %q", name))
	}
	f.addSeries(labelValues).value = v
}

// Histo emits one histogram sample from a snapshot.
func (g *Gatherer) Histo(name string, snap HistSnapshot, labelValues ...string) {
	f := g.mustFamily(name)
	if f.typ != TypeHistogram {
		panic(fmt.Sprintf("telemetry: Histo on non-histogram family %q", name))
	}
	for i := 1; i < len(snap.Bounds); i++ {
		if snap.Bounds[i] <= snap.Bounds[i-1] {
			panic(fmt.Sprintf("telemetry: metric %s: bucket bounds not ascending", name))
		}
	}
	f.addSeries(labelValues).hist = &snap
}

// WriteText renders every family of one collector pass in the Prometheus
// text exposition format, families and series in deterministic (sorted)
// order.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.gather() {
		f.render(bw)
	}
	return bw.Flush()
}

func (f *family) render(w *bufio.Writer) {
	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if s := f.series[k]; s.hist != nil {
			renderHist(w, f.name, f.labelNames, k, *s.hist)
		} else {
			fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.value))
		}
	}
}

// renderHist writes the _bucket/_sum/_count triplet with cumulative le
// buckets ending at +Inf, per the exposition format.
func renderHist(w *bufio.Writer, name string, labelNames []string, seriesKey string, snap HistSnapshot) {
	values := splitKey(seriesKey, len(labelNames))
	leNames := append(append(make([]string, 0, len(labelNames)+1), labelNames...), "le")
	leValues := append(append(make([]string, 0, len(values)+1), values...), "")
	var cum uint64
	for i, b := range snap.Bounds {
		if i < len(snap.Buckets) {
			cum += snap.Buckets[i]
		}
		leValues[len(leValues)-1] = formatFloat(b)
		fmt.Fprintf(w, "%s_bucket%s %s\n", name, renderLabels(leNames, leValues), formatUint(cum))
	}
	leValues[len(leValues)-1] = "+Inf"
	fmt.Fprintf(w, "%s_bucket%s %s\n", name, renderLabels(leNames, leValues), formatUint(snap.Count))
	fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(labelNames, values), formatFloat(snap.Sum))
	fmt.Fprintf(w, "%s_count%s %s\n", name, renderLabels(labelNames, values), formatUint(snap.Count))
}

func splitKey(key string, n int) []string {
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	start := 0
	for i := 0; i < len(key); i++ {
		if key[i] == '\xff' {
			out = append(out, key[start:i])
			start = i + 1
		}
	}
	return append(out, key[start:])
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry as
// text/plain; version=0.0.4 — the standard /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
