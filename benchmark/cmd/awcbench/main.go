// Command awcbench is the repository's end-to-end benchmark; see
// benchmark/README.md.
//
// One run of one workload, as the benchmark contract invokes it (the last
// line of standard output is the result object):
//
//	awcbench --workload bid-mix --seed 1 --seconds 10 --trace 0
//
// The whole set — every workload, five repeats each, medians with
// quartiles, results written to benchmark/out/:
//
//	awcbench -seed 1              end-to-end metrics
//	awcbench -seed 1 -trace 1     per-layer metrics and trace files
//	awcbench -selfcheck           the end-to-end set twice; fails on disagreement
//	awcbench -quick               one repeat of 2000 requests (smoke test)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	awcbench "autowebcache/benchmark"
)

func main() {
	// Children are stopped by the deferred Stop of whichever deployment is
	// up: a signal cancels ctx, every step returns, the defers run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "awcbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("awcbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this workload once and print the result object (empty: run the whole set)")
	seed := fs.Int64("seed", 1, "workload seed; repeat r of a set uses seed+r")
	seconds := fs.Int("seconds", 0, "measured seconds per run (0: BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from scrapes, an in-process traced run and replays")
	repeats := fs.Int("repeats", 5, "repeats per workload when running the whole set")
	selfcheck := fs.Bool("selfcheck", false, "run the end-to-end set twice back to back and fail if any metric's medians differ by more than its bound")
	idleSpin := fs.Bool("idle-spin", false, "internal: be the idle spinner process (see StartIdleSpinner)")
	quick := fs.Bool("quick", false, "smoke test: one repeat, one set-up, 2000 measured requests, a tenth of the warm-up")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *idleSpin {
		return awcbench.SpinIdle()
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := awcbench.LoadSpec(root)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	env := awcbench.Env{
		ServerBin: filepath.Join(root, ".bench_build", "bin", "rubis-server"),
		WorkDir:   filepath.Join(root, ".bench_build", "run"),
		OutDir:    filepath.Join(root, "benchmark", "out"),
	}
	if err := os.MkdirAll(env.WorkDir, 0o755); err != nil {
		return err
	}
	if err := buildServer(ctx, root, env.ServerBin); err != nil {
		return err
	}

	if stopSpinner, err := awcbench.StartIdleSpinner(); err != nil {
		fmt.Println("running without the idle spinner, expect wider spreads:", err)
	} else {
		defer stopSpinner()
	}

	opts := awcbench.RunOpts{Seed: *seed, Measure: awcbench.Limit{Duration: time.Duration(*seconds) * time.Second}, Setups: 3}
	if *quick {
		opts = awcbench.RunOpts{Seed: *seed, Measure: awcbench.Limit{Requests: 2000}, Setups: 1, Quick: true}
		*repeats = 1
	}
	runFn := awcbench.RunE2E
	if *trace == 1 {
		runFn = awcbench.RunTrace
	}

	if *workload != "" {
		w, err := awcbench.WorkloadByName(*workload)
		if err != nil {
			return err
		}
		res, err := runFn(ctx, env, w, opts)
		if err != nil {
			return err
		}
		for _, n := range res.Notes {
			fmt.Println(n)
		}
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			if v, ok := res.Metrics[m.Name]; ok {
				fmt.Printf("%-14s %-36s %14.4f %s\n", w.Name, m.Name, v.Value, v.Unit)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d operations failed", w.Name, res.Failed, res.Attempted)
		}
		return nil
	}

	set := func(file string) (*awcbench.SuiteResult, error) {
		res, err := awcbench.RunSuite(ctx, env, spec, awcbench.Workloads(), runFn, opts, *repeats, os.Stdout)
		if err != nil {
			return nil, err
		}
		res.Print(os.Stdout, spec)
		path := filepath.Join(env.OutDir, file)
		if err := res.WriteFile(path); err != nil {
			return nil, err
		}
		fmt.Println("results written to", path)
		if !res.Correct {
			return nil, fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
		}
		return res, nil
	}
	name := "results.json"
	if *trace == 1 {
		name = "results-trace.json"
	}
	first, err := set(name)
	if err != nil || !*selfcheck {
		return err
	}
	second, err := set("results-selfcheck.json")
	if err != nil {
		return err
	}
	if bad := awcbench.Disagreements(spec, first, second); len(bad) > 0 {
		return fmt.Errorf("selfcheck: two sets of runs of the same commit disagree:\n  %s", strings.Join(bad, "\n  "))
	}
	fmt.Println("selfcheck: both sets agree within every bound")
	return nil
}

// findRoot locates the repository root — the directory of the autowebcache
// module — from the working directory or its parent, so the command works
// from the root (the benchmark contract) and from benchmark/ (go run).
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module autowebcache\n") {
			return dir, nil
		}
	}
	return "", errors.New("run awcbench from the repository root or from benchmark/: no autowebcache go.mod found")
}

// buildServer builds cmd/rubis-server as shipped.
func buildServer(ctx context.Context, root, bin string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/rubis-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build rubis-server: %w\n%s", err, out)
	}
	return nil
}
