package main

// The -e2e mode: fold the tagged result lines scripts/e2e-pairs.sh appends
// into the end-to-end section of a BENCH_<PR>.json record.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// fingerprint is the box a record was measured on; records with different
// fingerprints are not compared.
type fingerprint struct {
	NumCPU    int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Kernel    string `json:"kernel"`
}

// e2eRecord is a BENCH_<PR>.json record of alternating end-to-end pairs.
type e2eRecord struct {
	Fingerprint  fingerprint `json:"fingerprint"`
	ParentCommit string      `json:"parent_commit"`
	ChangeCommit string      `json:"change_commit"`
	// EndToEnd maps workload, then metric, to both sides' summaries.
	EndToEnd map[string]map[string]*e2eMetric `json:"end_to_end"`
}

// e2eMetric is one metric of one workload on both sides. Pairs counts the
// seeds both sides ran; Won and Lost count the pairs in which the change
// read better or worse (in the metric's direction), ties counting for
// neither.
type e2eMetric struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Parent summary `json:"parent"`
	Change summary `json:"change"`
	Pairs  int     `json:"pairs"`
	Won    int     `json:"won"`
	Lost   int     `json:"lost"`
}

// summary is a sample's median and quartiles (Python's exclusive
// statistics.quantiles, as the benchmark reports spread) and its size.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// pairLine is one line of the pairs file: a header or a tagged result.
type pairLine struct {
	Header *struct {
		fingerprint
		ParentCommit string `json:"parent_commit"`
		ChangeCommit string `json:"change_commit"`
	} `json:"header"`
	Side     string `json:"side"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	} `json:"result"`
}

// metricSpec is an end-to-end metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// foldE2E reads a pairs file and the end-to-end metrics in specPath
// (BENCHMARK.json) and returns the record. Runs that were not correct are
// left out of every summary and pair.
func foldE2E(pairs io.Reader, specPath string) (*e2eRecord, error) {
	b, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}

	rec := &e2eRecord{EndToEnd: make(map[string]map[string]*e2eMetric)}
	haveHeader := false
	// values[workload][side][seed] holds one run's metrics.
	values := make(map[string]map[string]map[int64]map[string]float64)
	sc := bufio.NewScanner(pairs)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for n := 1; sc.Scan(); n++ {
		var l pairLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("pairs line %d: %w", n, err)
		}
		if h := l.Header; h != nil {
			if haveHeader && h.fingerprint != rec.Fingerprint {
				return nil, fmt.Errorf("pairs line %d: measured on %+v, earlier lines on %+v: refusing to compare across boxes", n, h.fingerprint, rec.Fingerprint)
			}
			haveHeader = true
			rec.Fingerprint, rec.ParentCommit, rec.ChangeCommit = h.fingerprint, h.ParentCommit, h.ChangeCommit
			continue
		}
		if l.Side != "parent" && l.Side != "change" {
			return nil, fmt.Errorf("pairs line %d: side %q", n, l.Side)
		}
		if !l.Result.Correct {
			continue
		}
		if values[l.Workload] == nil {
			values[l.Workload] = map[string]map[int64]map[string]float64{"parent": {}, "change": {}}
		}
		m := make(map[string]float64, len(l.Result.Metrics))
		for name, v := range l.Result.Metrics {
			m[name] = v.Value
		}
		values[l.Workload][l.Side][l.Seed] = m
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !haveHeader {
		return nil, fmt.Errorf("pairs file has no header line")
	}

	for w, sides := range values {
		rec.EndToEnd[w] = make(map[string]*e2eMetric)
		for _, ms := range spec.EndToEnd {
			em := &e2eMetric{Unit: ms.Unit, Better: ms.Better}
			var pv, cv []float64
			for seed, p := range sides["parent"] {
				v, ok := p[ms.Name]
				if !ok {
					continue
				}
				pv = append(pv, v)
				c, ok := sides["change"][seed][ms.Name]
				if !ok {
					continue
				}
				em.Pairs++
				switch d := c - v; {
				case d < 0 && ms.Better == "lower", d > 0 && ms.Better == "higher":
					em.Won++
				case d != 0:
					em.Lost++
				}
			}
			for _, c := range sides["change"] {
				if v, ok := c[ms.Name]; ok {
					cv = append(cv, v)
				}
			}
			em.Parent, em.Change = summarize(pv), summarize(cv)
			rec.EndToEnd[w][ms.Name] = em
		}
	}
	return rec, nil
}

func summarize(vs []float64) summary {
	q1, med, q3 := quartiles(vs)
	return summary{Median: med, Q1: q1, Q3: q3, N: len(vs)}
}

// quartiles is Python's statistics.quantiles(vs, n=4) (exclusive method):
// position k(n+1)/4 on a 1-based axis, clamped to the data.
func quartiles(vs []float64) (q1, med, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// writeE2E folds the pairs file at pairsPath into a record written to
// outPath, and prints one line per workload and metric.
func writeE2E(pairsPath, specPath, outPath string, out io.Writer) error {
	f, err := os.Open(pairsPath)
	if err != nil {
		return err
	}
	defer f.Close()
	rec, err := foldE2E(f, specPath)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	workloads := make([]string, 0, len(rec.EndToEnd))
	for w := range rec.EndToEnd {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	for _, w := range workloads {
		names := make([]string, 0, len(rec.EndToEnd[w]))
		for name := range rec.EndToEnd[w] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := rec.EndToEnd[w][name]
			fmt.Fprintf(out, "%-13s %-19s parent %9.4g [%9.4g %9.4g]  change %9.4g [%9.4g %9.4g]  won %2d lost %2d of %2d %s\n",
				w, name, m.Parent.Median, m.Parent.Q1, m.Parent.Q3, m.Change.Median, m.Change.Q1, m.Change.Q3, m.Won, m.Lost, m.Pairs, m.Unit)
		}
	}
	fmt.Fprintln(out, "wrote", outPath)
	return nil
}
