// Command benchdiff is the CI bench-regression gate: it compares a fresh
// scheduler bench run (fpgad -compare -json) against the committed
// baseline, matching rows by (table, label) and checking every metric of
// the row that gate.Gated names — visible configuration time and
// request-path bytes streamed on every row, and every recorded metric of
// a deterministic suite (S3/S4 hidden config, S7 availability and repair
// time, S8 overlap and availability, S9 sojourn percentiles). Any gated
// metric regressing past its band on any configuration fails the gate;
// configurations present only in the fresh run are reported but never
// fail (new rows are how the bench grows). A perf improvement is reported
// as a negative delta for a time or byte count — and is the cue to
// re-commit the baseline so the win is locked in.
//
// Every comparison goes through gate.Compare, which cmd/benchboard calls
// too, so a trajectory flag and a gate verdict cannot disagree. The band
// follows the suite and metric alone: 1% for the S9 sojourn percentiles,
// 15% for everything else.
//
// Usage:
//
//	benchdiff -baseline BENCH_sched.json -fresh BENCH_fresh.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/bench"
	"repro/internal/bench/gate"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(errw)
	basePath := fs.String("baseline", "BENCH_sched.json", "committed baseline rows")
	freshPath := fs.String("fresh", "", "fresh bench rows to gate")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *freshPath == "" {
		fmt.Fprintln(errw, "benchdiff: -fresh is required")
		return 2
	}
	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintln(errw, "benchdiff:", err)
		return 2
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fmt.Fprintln(errw, "benchdiff:", err)
		return 2
	}
	if len(base) == 0 {
		fmt.Fprintln(errw, "benchdiff: baseline has no records")
		return 2
	}

	freshBy := make(map[string]bench.Row, len(fresh))
	for _, r := range fresh {
		freshBy[key(r)] = r
	}
	inBase := make(map[string]bool, len(base))
	for _, r := range base {
		inBase[key(r)] = true
	}
	sort.SliceStable(base, func(i, j int) bool { return key(base[i]) < key(base[j]) })

	failures := 0
	for _, b := range base {
		k := key(b)
		f, ok := freshBy[k]
		if !ok {
			fmt.Fprintf(errw, "benchdiff: FAIL %s: configuration missing from fresh run\n", k)
			failures++
			continue
		}
		// One table lists one set of metrics, so the fresh row's i-th
		// metric is the baseline's.
		fm := f.Metrics()
		for i, m := range b.Metrics() {
			if !gate.Gated(b.Table, m.Name) {
				continue
			}
			now := fm[i].Value
			v := gate.Compare(b.Table, m.Name, m.Value, now)
			status := "ok  "
			if !v.Pass {
				status = "FAIL"
				failures++
			}
			fmt.Fprintf(out, "%s %-32s %-14s %12.3f %s -> %12.3f %s  ", status, k, m.Name, m.Value, m.Unit, now, m.Unit)
			switch {
			case v.Zero && gate.HigherBetter(m.Name):
				fmt.Fprintln(out, "(zero baseline, nothing to fall from)")
			case v.Zero:
				// A percentage of zero is undefined, so the zero-baseline
				// rows gate the absolute delta (see internal/bench/gate).
				fmt.Fprintf(out, "(zero baseline, allowed +%.3g %s absolute)\n", v.Allowed, m.Unit)
			case gate.HigherBetter(m.Name):
				fmt.Fprintf(out, "(%+.1f%%, allowed -%.0f%%)\n", v.DeltaPct, v.Allowed)
			default:
				fmt.Fprintf(out, "(%+.1f%%, allowed +%.0f%%)\n", v.DeltaPct, v.Allowed)
			}
		}
	}
	for _, r := range fresh {
		if !inBase[key(r)] {
			fmt.Fprintf(out, "new  %-32s (not in baseline; commit the fresh records to start gating it)\n", key(r))
		}
	}
	if failures > 0 {
		fmt.Fprintf(errw, "benchdiff: %d regression(s) beyond tolerance — investigate, or re-commit the baseline if the change is intended\n",
			failures)
		return 1
	}
	fmt.Fprintf(out, "benchdiff: %d configuration(s) within tolerance of baseline\n", len(base))
	return 0
}

func key(r bench.Row) string { return r.Table + "/" + r.Label }

func load(path string) ([]bench.Row, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []bench.Row
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rows, nil
}
