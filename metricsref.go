package autowebcache

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
)

// MetricsReference renders docs/METRICS.md: the full reference of every
// series a fully-wired process exports, generated from the live registry so
// the document cannot drift from the code. It boots a throwaway in-memory
// stack — memdb runtime, a woven two-handler app, and
// a loopback single-node cluster — watches it all from one Admin, and
// tabulates Families().
//
// cmd/metricsdoc writes (or, with -check, verifies) the file, and
// TestMetricsReferenceCurrent keeps the committed copy in sync.
func MetricsReference() (string, error) {
	db := NewDB()
	if err := db.CreateTable(TableSpec{
		Name: "notes",
		Columns: []Column{
			{Name: "id", Type: TypeInt, AutoIncrement: true},
			{Name: "note", Type: TypeString},
		},
	}); err != nil {
		return "", err
	}
	rt, err := New(db, Config{
		PageCache: PageCacheConfig{MaxBytes: 1 << 20},
		Admission: true,
	})
	if err != nil {
		return "", err
	}
	defer rt.Close()
	noop := func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) }
	woven, err := rt.Weave([]HandlerInfo{
		{Name: "Read", Path: "/read", Fn: noop},
		{Name: "Write", Path: "/write", Write: true, Fn: noop},
	}, Rules{})
	if err != nil {
		return "", err
	}
	node, err := rt.Cluster(woven, ClusterConfig{
		ListenPeer:    "127.0.0.1:0",
		ProbeInterval: -1, // no background probes in a doc build
	})
	if err != nil {
		return "", err
	}
	defer node.Close()

	admin := NewAdmin().Watch(rt, woven, node)
	return renderMetricsReference(admin.Families()), nil
}

// metricGroups partitions the reference table by name prefix, in document
// order.
var metricGroups = []struct {
	title  string
	prefix string
}{
	{"Application (weave layer)", "awc_request"},
	{"Application (weave layer), continued", "awc_"},
	{"Cache tiers", "awc_cache_"},
	{"Cluster", "awc_cluster_"},
	{"Process runtime", ""},
}

func renderMetricsReference(fams []MetricFamily) string {
	var b strings.Builder
	b.WriteString(`# Metrics reference

<!-- GENERATED FILE — do not edit by hand.
     Regenerate with: go run ./cmd/metricsdoc -out docs/METRICS.md
     Verified by `)
	b.WriteString("`make docs-check` and `TestMetricsReferenceCurrent`. -->\n\n")
	b.WriteString(`Every series below is exported on ` + "`GET /metrics`" + ` (Prometheus text
format 0.0.4) by a fully-wired process: woven application, page cache
and cluster node, all watched by one ` + "`Admin`" + `. A process without some
layer (no cache, no cluster) simply omits that layer's families. The
help strings name the internal statistic each series mirrors —
` + "`/metrics`" + ` and ` + "`/statsz`" + ` read the same snapshots and can never
disagree.

Conventions: every cache-specific series is prefixed ` + "`awc_`" + `; counters
end in ` + "`_total`" + `, histograms in ` + "`_duration_seconds`" + ` (exported as
` + "`_bucket`/`_sum`/`_count`" + ` with cumulative ` + "`le`" + ` buckets), gauges in
neither. The ` + "`cache`" + ` label names the page tier (` + "`page`" + `);
` + "`segment`" + ` splits occupancy between the ` + "`probation`" + ` and
` + "`protected`" + ` LRU segments.

`)

	seen := make(map[string]bool)
	grouped := make([][]MetricFamily, len(metricGroups))
	for gi, g := range metricGroups {
		for _, f := range fams {
			if seen[f.Name] || !strings.HasPrefix(f.Name, g.prefix) {
				continue
			}
			// The app layer is "awc_ minus awc_cache_/awc_cluster_": handled
			// by claiming the cache/cluster prefixes later only if the
			// broader awc_ group skips them first.
			if g.prefix == "awc_" &&
				(strings.HasPrefix(f.Name, "awc_cache_") || strings.HasPrefix(f.Name, "awc_cluster_")) {
				continue
			}
			if g.prefix == "awc_request" && !strings.HasPrefix(f.Name, "awc_request") {
				continue
			}
			seen[f.Name] = true
			grouped[gi] = append(grouped[gi], f)
		}
	}
	// Fold the two app partitions into one section, sorted by name.
	app := append(grouped[0], grouped[1]...)
	sort.Slice(app, func(i, j int) bool { return app[i].Name < app[j].Name })
	sections := []struct {
		title string
		fams  []MetricFamily
	}{
		{"Application (weave layer)", app},
		{"Cache tiers", grouped[2]},
		{"Cluster", grouped[3]},
		{"Process runtime", grouped[4]},
	}

	for _, sec := range sections {
		if len(sec.fams) == 0 {
			continue
		}
		fmt.Fprintf(&b, "## %s\n\n", sec.title)
		b.WriteString("| Series | Type | Labels | Unit | Mirrors / meaning |\n")
		b.WriteString("|---|---|---|---|---|\n")
		for _, f := range sec.fams {
			labels := strings.Join(f.Labels, ", ")
			if labels == "" {
				labels = "—"
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n",
				f.Name, f.Type, labels, metricUnit(f.Name), f.Help)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// metricUnit derives the unit column from the series name, per the naming
// convention.
func metricUnit(name string) string {
	switch {
	case strings.Contains(name, "_seconds"):
		return "seconds"
	case strings.Contains(name, "bytes"):
		return "bytes"
	case strings.HasSuffix(name, "_total"):
		return "count"
	default:
		return "count"
	}
}
