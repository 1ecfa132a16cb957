// Command faultreplay generates and replays configuration-upset
// campaigns against the scheduled pool. A campaign is written once as a
// JSONL artifact — one scenario header line plus one line per scheduled
// bit-flip — and replayed bit-identically later: the replay drives the
// S7 workload closed-loop, injects each scenario's flips at their
// recorded completion counts, and reports availability, repair traffic
// and tail latency per scenario.
//
// Usage:
//
//	faultreplay -out artifacts/fault-replay/fault_scenarios.jsonl
//	faultreplay -replay artifacts/fault-replay/fault_scenarios.jsonl
//	faultreplay -scenario burst -n 120 -out burst.jsonl
//	faultreplay -replay sweep.jsonl -json BENCH_replay.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/pool"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("faultreplay", flag.ContinueOnError)
	fs.SetOutput(errw)
	scenario := fs.String("scenario", "sweep", "fault campaign preset (sweep, uniform, burst)")
	n := fs.Int("n", 60, "workload length the campaign is sized for")
	seed := fs.Int64("seed", 7, "campaign and workload seed")
	boards := fs.Int("boards", 2, "64-bit boards in the pool")
	regions := fs.Int("regions", 2, "dynamic regions per board")
	mixSpec := fs.String("mix", bench.Mix, "workload mix as name=weight,...")
	batch := fs.Int("batch", 4, "same-module batch window")
	outPath := fs.String("out", "", "generate the campaign and write it to this JSONL artifact")
	replayPath := fs.String("replay", "", "replay the campaigns from this JSONL artifact")
	jsonPath := fs.String("json", "", "with -replay, write machine-readable S7 records to this file")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if (*outPath == "") == (*replayPath == "") {
		fmt.Fprintln(errw, "faultreplay: exactly one of -out (generate) or -replay (run) is required")
		return 2
	}
	if *jsonPath != "" && *replayPath == "" {
		fmt.Fprintln(errw, "faultreplay: -json only applies to -replay")
		return 2
	}
	if *n <= 0 || *boards <= 0 || *regions <= 0 {
		fmt.Fprintf(errw, "faultreplay: -n %d -boards %d -regions %d: all must be positive\n", *n, *boards, *regions)
		return 2
	}
	w := bench.Workload{Seed: *seed, N: *n, Mix: *mixSpec, Batch: *batch}
	cfg := pool.Config{Sys64: *boards, Regions: *regions}
	if *outPath != "" {
		return runGenerate(w, cfg, *scenario, *outPath, out, errw)
	}
	return runReplay(w, cfg, *replayPath, *jsonPath, out, errw)
}

// runGenerate expands the campaign preset against the pool geometry and
// writes the JSONL artifact.
func runGenerate(w bench.Workload, cfg pool.Config, campaign, path string, out, errw io.Writer) int {
	scenarios, err := bench.FaultScenarios(w, cfg, campaign)
	if err != nil {
		fmt.Fprintln(errw, "faultreplay:", err)
		return 2
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(errw, "faultreplay:", err)
		return 1
	}
	if err := fault.Write(f, scenarios); err != nil {
		f.Close()
		fmt.Fprintln(errw, "faultreplay:", err)
		return 1
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(errw, "faultreplay:", err)
		return 1
	}
	events := 0
	for _, sc := range scenarios {
		events += len(sc.Events)
	}
	fmt.Fprintf(out, "wrote %s: %d scenario(s), %d fault event(s) (campaign %s, seed %d, %d requests over %dx%d-region pool)\n",
		path, len(scenarios), events, campaign, w.Seed, w.N, cfg.Sys64, cfg.Regions)
	return 0
}

// runReplay reads the artifact and drives the S7 workload once per
// scenario, printing the availability table.
func runReplay(w bench.Workload, cfg pool.Config, path, jsonPath string, out, errw io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(errw, "faultreplay:", err)
		return 1
	}
	scenarios, err := fault.Read(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(errw, "faultreplay:", err)
		return 1
	}
	if len(scenarios) == 0 {
		fmt.Fprintf(errw, "faultreplay: %s holds no scenarios\n", path)
		return 1
	}
	fmt.Fprintf(out, "replaying %d scenario(s) from %s: %d request(s), mix %s, batch %d, seed %d, %dx%d-region pool\n\n",
		len(scenarios), path, w.N, w.Mix, w.Batch, w.Seed, cfg.Sys64, cfg.Regions)
	s := bench.FaultSuite(w, cfg, scenarios)
	runs, err := s.Run()
	if err != nil {
		fmt.Fprintln(errw, "faultreplay:", err)
		return 1
	}
	s.Table(runs).Format(out)
	if jsonPath != "" {
		if err := bench.NewWriter(s.Rows(runs)...).WriteFile(jsonPath); err != nil {
			fmt.Fprintln(errw, "faultreplay:", err)
			return 1
		}
		fmt.Fprintf(out, "wrote %s\n", jsonPath)
	}
	return 0
}
