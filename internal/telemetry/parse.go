package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed series: a metric name, its labels and a value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsedFamily is one family as read back from a text exposition.
type ParsedFamily struct {
	Name    string
	Type    string // counter | gauge | histogram | untyped
	Help    string
	Samples []Sample
}

// Scrape is a parsed /metrics payload.
type Scrape struct {
	Families map[string]*ParsedFamily
	order    []string
}

// Value returns the sample value for name with exactly the given labels
// (as "k=v" pairs); ok reports whether such a sample exists. Histogram
// sub-series are looked up under their full name (x_bucket, x_sum,
// x_count) within family x.
func (s *Scrape) Value(name string, labelPairs ...string) (float64, bool) {
	want := make(map[string]string, len(labelPairs))
	for _, p := range labelPairs {
		k, v, ok := strings.Cut(p, "=")
		if !ok {
			return 0, false
		}
		want[k] = v
	}
	fam := s.Families[name]
	if fam == nil {
		fam = s.Families[histBase(name)]
	}
	if fam == nil {
		return 0, false
	}
	for _, sm := range fam.Samples {
		if sm.Name != name || len(sm.Labels) != len(want) {
			continue
		}
		match := true
		for k, v := range want {
			if sm.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return sm.Value, true
		}
	}
	return 0, false
}

func histBase(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// ParseText parses a Prometheus text-format exposition, validating as it
// goes: names and labels must be well-formed, values numeric, TYPE lines
// recognised, histogram buckets cumulative and +Inf-terminated, bucket
// counts consistent with _count. It is the round-trip check for WriteText,
// the scrape reader in the load generator, and part of `make docs-check`.
func ParseText(r io.Reader) (*Scrape, error) {
	sc := &Scrape{Families: make(map[string]*ParsedFamily)}
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	fam := func(name string) *ParsedFamily {
		base := histBase(name)
		if f, ok := sc.Families[base]; ok && f.Type == "histogram" {
			return f
		}
		if f, ok := sc.Families[name]; ok {
			return f
		}
		f := &ParsedFamily{Name: name, Type: "untyped"}
		sc.Families[name] = f
		sc.order = append(sc.order, name)
		return f
	}
	for br.Scan() {
		lineNo++
		line := br.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			rest := strings.TrimPrefix(line, "#")
			rest = strings.TrimLeft(rest, " ")
			kw, rest, _ := strings.Cut(rest, " ")
			switch kw {
			case "HELP":
				name, help, _ := strings.Cut(rest, " ")
				if !nameRe.ok(name) {
					return nil, fmt.Errorf("line %d: HELP for invalid name %q", lineNo, name)
				}
				f := fam(name)
				f.Help = unescapeHelp(help)
			case "TYPE":
				name, typ, _ := strings.Cut(rest, " ")
				if !nameRe.ok(name) {
					return nil, fmt.Errorf("line %d: TYPE for invalid name %q", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown TYPE %q for %s", lineNo, typ, name)
				}
				f := fam(name)
				if len(f.Samples) > 0 {
					return nil, fmt.Errorf("line %d: TYPE for %s after its samples", lineNo, name)
				}
				f.Type = typ
			}
			continue
		}
		sample, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		f := fam(sample.Name)
		f.Samples = append(f.Samples, sample)
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	for _, name := range sc.order {
		if f := sc.Families[name]; f.Type == "histogram" {
			if err := validateHistogram(f); err != nil {
				return nil, fmt.Errorf("family %s: %w", name, err)
			}
		}
	}
	return sc, nil
}

// parseSample parses `name{k="v",...} value` (labels optional). Timestamps
// are not produced by this registry and are rejected.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	s.Name = line[:i]
	if !nameRe.ok(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	if i < len(line) && line[i] == '{' {
		end, err := parseLabels(line[i:], s.Labels)
		if err != nil {
			return s, err
		}
		i += end
	}
	rest := strings.TrimLeft(line[i:], " ")
	if strings.ContainsRune(rest, ' ') {
		return s, fmt.Errorf("unexpected trailing fields in %q", line)
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %w", rest, err)
	}
	s.Value = v
	return s, nil
}

func parseValue(v string) (float64, error) {
	switch v {
	case "+Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	case "NaN":
		return strconv.ParseFloat("NaN", 64)
	}
	return strconv.ParseFloat(v, 64)
}

// parseLabels parses a {k="v",...} block starting at s[0]=='{', filling
// into and returning the index just past the closing brace.
func parseLabels(s string, into map[string]string) (int, error) {
	i := 1
	for {
		for i < len(s) && s[i] == ' ' {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, nil
		}
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("unterminated label block %q", s)
		}
		name := s[start:i]
		if !labelRe.ok(name) {
			return 0, fmt.Errorf("invalid label name %q", name)
		}
		i++ // '='
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label %s: value not quoted", name)
		}
		i++
		var b strings.Builder
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				i++
				if i >= len(s) {
					return 0, fmt.Errorf("label %s: dangling escape", name)
				}
				switch s[i] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return 0, fmt.Errorf("label %s: bad escape \\%c", name, s[i])
				}
			} else {
				b.WriteByte(s[i])
			}
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("label %s: unterminated value", name)
		}
		into[name] = b.String()
		i++ // closing quote
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

func unescapeHelp(v string) string {
	if !strings.Contains(v, `\`) {
		return v
	}
	r := strings.NewReplacer(`\\`, `\`, `\n`, "\n")
	return r.Replace(v)
}

// validateHistogram checks each label-set's bucket series: le values
// ascend, counts are cumulative (non-decreasing), a +Inf bucket exists and
// equals the _count sample.
func validateHistogram(f *ParsedFamily) error {
	type hseries struct {
		les    []float64
		counts []float64
		inf    float64
		hasInf bool
		count  float64
		hasCnt bool
	}
	bySet := map[string]*hseries{}
	get := func(labels map[string]string) *hseries {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k != "le" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(labels[k])
			b.WriteByte(';')
		}
		h, ok := bySet[b.String()]
		if !ok {
			h = &hseries{}
			bySet[b.String()] = h
		}
		return h
	}
	for _, s := range f.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			h := get(s.Labels)
			le := s.Labels["le"]
			if le == "" {
				return fmt.Errorf("bucket sample without le label")
			}
			if le == "+Inf" {
				h.inf, h.hasInf = s.Value, true
				continue
			}
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("bad le %q: %w", le, err)
			}
			h.les = append(h.les, v)
			h.counts = append(h.counts, s.Value)
		case strings.HasSuffix(s.Name, "_count"):
			h := get(s.Labels)
			h.count, h.hasCnt = s.Value, true
		}
	}
	for set, h := range bySet {
		for i := 1; i < len(h.les); i++ {
			if h.les[i] <= h.les[i-1] {
				return fmt.Errorf("series {%s}: le bounds not ascending", set)
			}
			if h.counts[i] < h.counts[i-1] {
				return fmt.Errorf("series {%s}: buckets not cumulative", set)
			}
		}
		if !h.hasInf {
			return fmt.Errorf("series {%s}: missing +Inf bucket", set)
		}
		if len(h.counts) > 0 && h.inf < h.counts[len(h.counts)-1] {
			return fmt.Errorf("series {%s}: +Inf bucket below last bucket", set)
		}
		if h.hasCnt && h.count != h.inf {
			return fmt.Errorf("series {%s}: _count %v != +Inf bucket %v", set, h.count, h.inf)
		}
	}
	return nil
}
