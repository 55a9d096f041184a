// Command benchjson runs the hit-path micro-benchmarks (page-cache hit,
// miss+insert, coalesced miss, mixed parallel, HTTP and disk-tier paths) and
// writes the results — ns/op, allocs/op, B/op — as JSON, so each PR's perf
// trajectory is recorded machine-readably (the BENCH_N.json convention used
// by `make bench`; pass -out to pick the file).
//
// With -baseline it additionally diffs the fresh run against a committed
// BENCH_*.json and exits non-zero when any tracked benchmark regresses by
// more than -max-regress ns/op or allocates more per op — the CI
// bench-gate:
//
//	benchjson -out BENCH_CI.json -baseline BENCH_2.json
//
// With -e2e it runs no benchmark: it folds the alternating end-to-end
// pairs scripts/e2e-pairs.sh recorded into the end-to-end section of a
// record — per workload and metric, both sides' median, quartiles and
// sample count and the pairs the change won and lost, with the box
// fingerprint and both commits. It takes the metric names from
// BENCHMARK.json, so it runs from the repository root:
//
//	scripts/e2e-pairs.sh ../parent 10 3 browse-warm bid-mix
//	benchjson -e2e e2e-pairs.jsonl -out BENCH_54.json
package main

import (
	"flag"
	"fmt"
	"os"

	"autowebcache/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	outPath := fs.String("out", "BENCH.json", "output JSON path")
	baseline := fs.String("baseline", "", "baseline BENCH_*.json to gate against (empty = no gate)")
	maxRegress := fs.Float64("max-regress", bench.DefaultMaxRegress,
		"allowed fractional ns/op regression vs the baseline before the gate fails")
	e2e := fs.String("e2e", "", "fold this scripts/e2e-pairs.sh output into -out instead of running benchmarks")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *e2e != "" {
		return writeE2E(*e2e, "BENCHMARK.json", *outPath, out)
	}
	recs, err := bench.WriteHitPathJSON(*outPath)
	if err != nil {
		return err
	}
	for _, r := range recs {
		fmt.Fprintf(out, "%-18s %10.0f ns/op %6d allocs/op %8d B/op  %s\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, r.Note)
	}
	fmt.Fprintln(out, "wrote", *outPath)
	if *baseline == "" {
		return nil
	}

	base, err := bench.ReadHitPathJSON(*baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	results, ok := bench.Gate(recs, base, *maxRegress)
	fmt.Fprintf(out, "\nbench-gate vs %s (max ns/op regression %.0f%%, allocs/op must not increase):\n",
		*baseline, *maxRegress*100)
	for _, r := range results {
		status := "ok  "
		if r.Missing {
			status = "info"
		} else if r.Failed {
			status = "FAIL"
		}
		fmt.Fprintf(out, "  %s %-18s %8.0f -> %8.0f ns/op (%.2fx) %3d -> %3d allocs/op  %s\n",
			status, r.Name, r.BaseNs, r.FreshNs, r.NsRatio, r.BaseAllocs, r.FreshAllocs, r.Reason)
	}
	if !ok {
		return fmt.Errorf("bench-gate failed against %s", *baseline)
	}
	fmt.Fprintln(out, "bench-gate passed")
	return nil
}
