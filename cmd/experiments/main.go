// Command experiments regenerates the paper's tables and figures as text
// tables.
//
// Usage:
//
//	experiments                # run everything at full effort
//	experiments -fig 13        # run one experiment (4, 13..20, A, B, P, H, CL, F)
//	experiments -fast          # small parameters (quick smoke run)
//	experiments -root DIR      # repository root for the fig. 20 LoC scan
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"autowebcache/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fig := fs.String("fig", "all", "experiment to run: 4, 13, 14, 15, 16, 17, 18, 19, 20, A, B, P, H, CL, F or all")
	fast := fs.Bool("fast", false, "use small parameters for a quick run")
	root := fs.String("root", ".", "repository root (for the fig. 20 code-size scan)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p := bench.Full()
	if *fast {
		p = bench.Fast()
	}
	type runner func() (*bench.Table, error)
	runners := map[string]runner{
		"4":  func() (*bench.Table, error) { return bench.Fig4(p) },
		"13": func() (*bench.Table, error) { return bench.Fig13(p) },
		"14": func() (*bench.Table, error) { return bench.Fig14(p) },
		"15": func() (*bench.Table, error) { return bench.Fig15(p) },
		"16": func() (*bench.Table, error) { return bench.Fig16(p) },
		"17": func() (*bench.Table, error) { return bench.Fig17(p) },
		"18": func() (*bench.Table, error) { return bench.Fig18(p) },
		"19": func() (*bench.Table, error) { return bench.Fig19(p) },
		"20": func() (*bench.Table, error) { return bench.Fig20(*root) },
		"A":  func() (*bench.Table, error) { return bench.AblationStrategies(p) },
		"B":  func() (*bench.Table, error) { return bench.AblationReplacement(p) },
		"P":  func() (*bench.Table, error) { return bench.ParallelScalability(p) },
		"H":  func() (*bench.Table, error) { return bench.HitPath(p) },
		"CL": func() (*bench.Table, error) { return bench.ClusterScalability(p) },
		"F":  func() (*bench.Table, error) { return bench.FragmentBenefit(p) },
	}
	if strings.EqualFold(*fig, "all") {
		// Render incrementally: full-effort experiments take minutes each.
		for _, id := range []string{"4", "13", "14", "15", "16", "17", "18", "19", "20", "A", "B", "P", "H", "CL", "F"} {
			tbl, err := runners[id]()
			if err != nil {
				return fmt.Errorf("experiment %s: %w", id, err)
			}
			if err := tbl.Render(os.Stdout); err != nil {
				return err
			}
		}
		return nil
	}
	r, ok := runners[strings.ToUpper(strings.TrimPrefix(*fig, "fig"))]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *fig)
	}
	tbl, err := r()
	if err != nil {
		return err
	}
	return tbl.Render(os.Stdout)
}
