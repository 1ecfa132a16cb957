// Command benchboard turns the append-only per-commit metric history
// (artifacts/bench/history.jsonl) into the repo's perf trajectory — the
// config-time / wire-bytes / availability / sustained-rate curves across
// commits that a single BENCH_sched.json snapshot cannot show. The
// history is written by `fpgad -compare -history`: one entry per S-suite
// row and metric.
//
// -md renders an EXPERIMENTS-style trajectory table per suite and metric;
// -svg writes one chart per (suite, metric) beside it.
//
// A point is flagged when its metric is one gate.Gated names and
// gate.Compare fails it against its predecessor — the rule and the
// comparison cmd/benchdiff applies, with the same band per suite, metric
// and row tolerance. Only S6's throughput and p99 are plotted but never
// flagged: S2's and S6's config time and streamed bytes are
// host-dependent too, yet gated like every other suite's.
//
// Usage:
//
//	benchboard -md artifacts/bench/board/TRAJECTORY.md -svg artifacts/bench/board
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("benchboard", flag.ContinueOnError)
	fs.SetOutput(errw)
	historyPath := fs.String("history", "artifacts/bench/history.jsonl", "per-commit metric history (JSONL)")
	mdPath := fs.String("md", "", "render the trajectory as a markdown table to this file")
	svgDir := fs.String("svg", "", "write one SVG chart per (suite, metric) into this directory")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *mdPath == "" && *svgDir == "" {
		fmt.Fprintln(errw, "benchboard: nothing to do — pass -md and/or -svg")
		return 2
	}
	charts, skipped, err := loadCharts(*historyPath)
	if err != nil {
		fmt.Fprintln(errw, "benchboard:", err)
		return 1
	}
	if skipped > 0 {
		fmt.Fprintf(out, "benchboard: skipped %d damaged history line(s)\n", skipped)
	}
	if len(charts) == 0 {
		fmt.Fprintf(errw, "benchboard: %s holds no metrics — run `make bench` first\n", *historyPath)
		return 1
	}
	if *mdPath != "" {
		if err := writeMarkdown(*mdPath, charts); err != nil {
			fmt.Fprintln(errw, "benchboard:", err)
			return 1
		}
		fmt.Fprintf(out, "wrote %s (%d chart(s))\n", *mdPath, len(charts))
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			fmt.Fprintln(errw, "benchboard:", err)
			return 1
		}
		for _, c := range charts {
			path := filepath.Join(*svgDir, c.fileName()+".svg")
			if err := os.WriteFile(path, []byte(c.svg()), 0o644); err != nil {
				fmt.Fprintln(errw, "benchboard:", err)
				return 1
			}
		}
		fmt.Fprintf(out, "wrote %d chart(s) to %s\n", len(charts), *svgDir)
	}
	return 0
}
