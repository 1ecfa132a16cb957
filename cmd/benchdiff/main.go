// Command benchdiff is the CI bench-regression gate: it compares a fresh
// scheduler bench run (fpgad -compare -json) against the committed
// baseline, matching records by (table, label) and checking the two
// metrics that summarize the reconfiguration bill — visible configuration
// time and request-path bytes streamed. Either metric regressing past the
// threshold on any configuration fails the gate; configurations present
// only in the fresh run are reported but never fail (new rows are how the
// bench grows). A perf improvement is reported as a negative delta — and
// is the cue to re-commit the baseline so the win is locked in.
//
// The band math lives in internal/bench/gate, shared with cmd/benchboard
// so a dashboard annotation and a gate verdict can never disagree. With
// -history (plus -sha), every comparison's verdict is appended to the
// per-commit history store benchboard plots.
//
// Usage:
//
//	benchdiff -baseline BENCH_sched.json -fresh BENCH_fresh.json
//	benchdiff -baseline BENCH_sched.json -fresh BENCH_fresh.json -max-regress 10
//	benchdiff -baseline BENCH_sched.json -fresh BENCH_fresh.json \
//	    -history artifacts/bench/history.jsonl -sha abc1234
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/bench/gate"
)

// record is the subset of bench.Row the gate reads. Records
// written before the table field existed key on ("", label) and still
// match themselves. A baseline record may carry its own tolerance band
// (tolerance_pct) when its configuration is inherently noisy — the
// SubmitAll S2 rows react to goroutine completion order — overriding the
// gate's default; the deterministic S3/S4/S7 rows and the paired-drive S8
// load-path rows gate at the 15% band.
type record struct {
	Table         string  `json:"table"`
	Label         string  `json:"label"`
	ConfigMs      float64 `json:"config_ms"`
	BytesStreamed uint64  `json:"bytes_streamed"`
	TolerancePct  float64 `json:"tolerance_pct"`

	// SLO percentile columns, gated only on the S9 rows — the one suite
	// whose sojourn percentiles are deterministic (pinned placement plus
	// arithmetic replay) rather than host-dependent.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// gatedMetric is one metric comparison: the display name (historic
// output format), the history metric name (the JSON field), the baseline
// and fresh values, and the zero-baseline absolute epsilon. A nonzero
// allowedPct overrides the record's band — the deterministic S9
// percentiles reproduce byte-identically, so they gate at 1% (any
// drift at all is a real latency change) instead of the 15% default.
type gatedMetric struct {
	name       string
	metric     string
	base, now  float64
	unit       string
	zeroEps    float64
	allowedPct float64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(errw)
	basePath := fs.String("baseline", "BENCH_sched.json", "committed baseline records")
	freshPath := fs.String("fresh", "", "fresh bench records to gate")
	maxRegress := fs.Float64("max-regress", gate.DefaultTolerancePct,
		"max allowed regression in percent, per configuration and metric")
	historyPath := fs.String("history", "",
		"append each comparison's verdict to this per-commit history file (JSONL; plotted by cmd/benchboard)")
	shaFlag := fs.String("sha", "",
		"commit id keying the -history entries (required with -history)")
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
	if *historyPath != "" && *shaFlag == "" {
		fmt.Fprintln(errw, "benchdiff: -history needs -sha (the commit id keying the entries)")
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

	freshBy := make(map[string]record, len(fresh))
	for _, r := range fresh {
		freshBy[key(r)] = r
	}
	keys := make([]string, 0, len(base))
	baseBy := make(map[string]record, len(base))
	for _, r := range base {
		baseBy[key(r)] = r
		keys = append(keys, key(r))
	}
	sort.Strings(keys)

	var verdicts []gate.Entry
	failures := 0
	for _, k := range keys {
		b := baseBy[k]
		f, ok := freshBy[k]
		if !ok {
			fmt.Fprintf(errw, "benchdiff: FAIL %s: configuration missing from fresh run\n", k)
			failures++
			continue
		}
		allowed := *maxRegress
		if b.TolerancePct > 0 {
			allowed = b.TolerancePct
		}
		metrics := []gatedMetric{
			{"config time", "config_ms", b.ConfigMs, f.ConfigMs, "ms", gate.ConfigMsZeroEps, 0},
			{"bytes streamed", "bytes_streamed", float64(b.BytesStreamed), float64(f.BytesStreamed), "B", gate.BytesZeroEps, 0},
		}
		if b.Table == "S9" {
			// The deterministic SLO suite promotes its sojourn percentiles
			// to gated columns; everywhere else they are informational.
			metrics = append(metrics,
				gatedMetric{"p50 sojourn", "p50_ms", b.P50Ms, f.P50Ms, "ms", gate.ConfigMsZeroEps, 1},
				gatedMetric{"p95 sojourn", "p95_ms", b.P95Ms, f.P95Ms, "ms", gate.ConfigMsZeroEps, 1},
				gatedMetric{"p99 sojourn", "p99_ms", b.P99Ms, f.P99Ms, "ms", gate.ConfigMsZeroEps, 1})
		}
		for _, m := range metrics {
			band := allowed
			if m.allowedPct > 0 {
				band = m.allowedPct
			}
			v := gate.Check(m.base, m.now, band, m.zeroEps)
			status := "ok  "
			if !v.Pass {
				status = "FAIL"
				failures++
			}
			if v.Zero {
				// A percentage of zero is undefined, so the zero-baseline
				// rows gate the absolute delta (see internal/bench/gate).
				fmt.Fprintf(out, "%s %-32s %-14s %12.3f %s -> %12.3f %s  (zero baseline, allowed +%.3g %s absolute)\n",
					status, k, m.name, m.base, m.unit, m.now, m.unit, v.Allowed, m.unit)
			} else {
				fmt.Fprintf(out, "%s %-32s %-14s %12.3f %s -> %12.3f %s  (%+.1f%%, allowed +%.0f%%)\n",
					status, k, m.name, m.base, m.unit, m.now, m.unit, v.DeltaPct, v.Allowed)
			}
			if *historyPath != "" {
				verdict := "ok"
				if !v.Pass {
					verdict = "fail"
				}
				verdicts = append(verdicts, gate.Entry{
					SHA:           *shaFlag,
					Suite:         f.Table,
					Metric:        f.Label + "/" + m.metric,
					Value:         m.now,
					Unit:          m.unit,
					Deterministic: gate.SuiteDeterministic(f.Table),
					TolerancePct:  b.TolerancePct,
					Verdict:       verdict,
					DeltaPct:      v.DeltaPct,
				})
			}
		}
	}
	for _, r := range fresh {
		if _, ok := baseBy[key(r)]; !ok {
			fmt.Fprintf(out, "new  %-32s (not in baseline; commit the fresh records to start gating it)\n", key(r))
		}
	}
	if *historyPath != "" {
		if err := gate.AppendEntries(*historyPath, verdicts); err != nil {
			fmt.Fprintln(errw, "benchdiff:", err)
			return 2
		}
	}
	if failures > 0 {
		fmt.Fprintf(errw, "benchdiff: %d regression(s) beyond tolerance — investigate, or re-commit the baseline if the change is intended\n",
			failures)
		return 1
	}
	fmt.Fprintf(out, "benchdiff: %d configuration(s) within tolerance of baseline\n", len(keys))
	return 0
}

func key(r record) string { return r.Table + "/" + r.Label }

func load(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
