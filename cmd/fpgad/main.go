// Command fpgad is the scheduler front-end: it boots a pool of simulated
// platforms and drives a configurable workload mix through the
// reconfiguration scheduler, then reports per-module throughput, the
// bitstream-cache hit rate, the streams the planner chose, prefetch
// economics and each member's final state.
//
// Usage:
//
//	fpgad                                        # default mixed workload
//	fpgad -sys32 2 -sys64 2 -n 64 -mix "sha1=1,jenkins=2,fade=3"
//	fpgad -batch 1 -v                            # strict FIFO, per-request log
//	fpgad -policy mincost                        # cost-aware placement
//	fpgad -plan=false                            # complete streams only
//	fpgad -prefetch -window 1                    # speculative loads on idle members
//	fpgad -prefetch -predictor freq              # frequency instead of markov
//	fpgad -regions 2                             # two dynamic regions per member
//	fpgad -regions 2 floorplan                   # print the pool's floorplans and exit
//	fpgad -shards 4                              # sharded dispatch (per-shard run queues)
//	fpgad -shards 4 -rate 200000                 # open-loop drive, sojourn percentiles
//	fpgad -pprof localhost:6060                  # live net/http/pprof + /metrics with mutex profiling
//	fpgad -cpuprofile cpu.out -mutexprofile mtx.out
//	fpgad -trace trace.json                      # Chrome trace-event JSON (Perfetto/chrome://tracing)
//	fpgad -compare -json BENCH_sched.json        # S3 + S4 + S6 + S7 + S8 + S9 on the committed workload
//	fpgad -compare -json BENCH_sched.json -history artifacts/bench/history.jsonl -sha abc1234
//
// -json, -history and -sha apply to -compare only: its rows are the
// gate baseline (BENCH_sched.json) and the only entries of the
// per-commit history store that cmd/benchboard renders. -predictor
// applies with -prefetch only, and -compare rejects every single-run
// flag, -v included. floorplan is the only argument: it comes after the
// flags and takes only -sys32, -sys64 and -regions. A flag or argument
// that would be ignored exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	runtimepprof "runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/pool"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("fpgad", flag.ContinueOnError)
	fs.SetOutput(errw)
	sys32 := fs.Int("sys32", 2, "32-bit systems in the pool")
	sys64 := fs.Int("sys64", 0, "64-bit systems in the pool")
	n := fs.Int("n", 16, "number of requests")
	mixSpec := fs.String("mix", "brightness=2,blend=1,fade=2,jenkins=1",
		"workload mix as name=weight,... (tasks: "+fmt.Sprint(sched.TaskNames())+")")
	batch := fs.Int("batch", 4, "same-module batch window (1 = strict FIFO)")
	seed := fs.Int64("seed", 1, "workload seed")
	policyName := fs.String("policy", "lru",
		"placement policy on a cache miss ("+strings.Join(sched.PolicyNames(), ", ")+")")
	planOn := fs.Bool("plan", true,
		"plan differential streams against verified resident state (false = complete streams only)")
	prefetchOn := fs.Bool("prefetch", false,
		"speculatively configure idle members with predicted next modules")
	predictorName := fs.String("predictor", "markov",
		"next-module predictor for -prefetch ("+strings.Join(predict.Names(), ", ")+")")
	window := fs.Int("window", 0,
		"max outstanding requests, submitted closed-loop (0 = submit all upfront)")
	regions := fs.Int("regions", 1,
		"independently reconfigurable regions per member (1 = the paper's fixed dynamic area)")
	shards := fs.Int("shards", 1,
		"independently locked scheduler shards, each owning a subset of the pool's members (1 = the single-mutex dispatcher)")
	rate := fs.Float64("rate", 0,
		"open-loop Poisson arrival rate in requests per simulated second (0 = closed-loop submission); reports sojourn percentiles")
	pprofAddr := fs.String("pprof", "",
		"serve net/http/pprof on this address (e.g. localhost:6060) with mutex and block profiling enabled")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex-contention profile of the whole run to this file")
	compare := fs.Bool("compare", false,
		"run the S3 planning/placement/prefetch, S4 region, S6 scaling, S7 fault, S8 compression and S9 latency-SLO suites on their committed workloads instead of a single run")
	jsonPath := fs.String("json", "", "with -compare, write the suites' rows to this file")
	historyPath := fs.String("history", "",
		"with -compare, append every row's metrics to this per-commit history file (JSONL; rendered by cmd/benchboard)")
	shaFlag := fs.String("sha", "",
		"commit id keying the -history entries (required with -history)")
	tracePath := fs.String("trace", "",
		"write a Chrome trace-event JSON of the run to this file (load in Perfetto/chrome://tracing; with -compare, records the S8 paired drive)")
	verbose := fs.Bool("v", false, "log every request")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	// Parsing stops at the first argument that is not a flag, so anything
	// after it would go unread.
	if rest := fs.Args(); len(rest) > 0 && (rest[0] != "floorplan" || len(rest) > 1) {
		fmt.Fprintf(errw, "fpgad: unexpected arguments %q: the only argument is floorplan, after all flags\n", rest)
		return 2
	}
	if fs.Arg(0) == "floorplan" {
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "sys32", "sys64", "regions":
			default:
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			fmt.Fprintf(errw, "fpgad: floorplan prints the pool's floorplans and exits; %s do not apply to it\n",
				strings.Join(ignored, " "))
			return 2
		}
	}
	if *sys32 < 0 {
		fmt.Fprintf(errw, "fpgad: -sys32 %d: a board count cannot be negative\n", *sys32)
		return 2
	}
	if *sys64 < 0 {
		fmt.Fprintf(errw, "fpgad: -sys64 %d: a board count cannot be negative\n", *sys64)
		return 2
	}
	if *batch < 1 {
		fmt.Fprintf(errw, "fpgad: -batch %d: at least one request per batch\n", *batch)
		return 2
	}
	if *window < 0 {
		fmt.Fprintf(errw, "fpgad: -window %d: a window cannot be negative (0 submits every request upfront)\n", *window)
		return 2
	}
	if *regions < 1 {
		fmt.Fprintf(errw, "fpgad: -regions %d: at least one region per member\n", *regions)
		return 2
	}
	if *shards < 1 {
		fmt.Fprintf(errw, "fpgad: -shards %d: at least one shard\n", *shards)
		return 2
	}
	if *rate < 0 {
		fmt.Fprintf(errw, "fpgad: -rate %g: arrival rate must be positive\n", *rate)
		return 2
	}
	if *rate > 0 && *window > 0 {
		fmt.Fprintln(errw, "fpgad: -rate drives open-loop; -window drives closed-loop — pick one")
		return 2
	}
	if !*compare {
		var rowFlags []string
		predictor := false
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "json", "history", "sha":
				rowFlags = append(rowFlags, "-"+f.Name)
			case "predictor":
				predictor = true
			}
		})
		if len(rowFlags) > 0 {
			fmt.Fprintf(errw, "fpgad: %s only apply to -compare: a single run writes no rows\n", strings.Join(rowFlags, " "))
			return 2
		}
		if predictor && !*prefetchOn {
			fmt.Fprintln(errw, "fpgad: -predictor only applies with -prefetch: without it nothing is predicted")
			return 2
		}
	}
	if *historyPath != "" && *shaFlag == "" {
		fmt.Fprintln(errw, "fpgad: -history needs -sha (the commit id keying the entries)")
		return 2
	}
	// The tracer exists when anything consumes events: a -trace export, or
	// the /metrics endpoint riding the -pprof mux. Left nil otherwise, the
	// scheduler's emission sites stay true no-ops.
	var tracer *trace.Tracer
	if *tracePath != "" || *pprofAddr != "" {
		tracer = trace.New()
	}
	// Profiling hooks cover everything below, single runs and -compare
	// sweeps alike. Mutex/block sampling must be on before the contended
	// locks are born, so it precedes the pool boot.
	if *pprofAddr != "" || *mutexProfile != "" {
		runtime.SetMutexProfileFraction(5)
		runtime.SetBlockProfileRate(1000)
	}
	if *pprofAddr != "" {
		// /metrics rides the same default mux as net/http/pprof: counters
		// per event kind plus config-span and sojourn histograms, fed live
		// from the tracer's sink, in Prometheus text exposition format.
		reg := metrics.New()
		metrics.FeedTracer(tracer, reg)
		http.HandleFunc("/metrics", func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
			reg.WriteText(rw)
		})
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(errw, "fpgad: pprof:", err)
			}
		}()
		fmt.Fprintf(out, "pprof: serving http://%s/debug/pprof/ and /metrics (mutex fraction 5, block rate 1000ns)\n", *pprofAddr)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(errw, "fpgad:", err)
			return 1
		}
		if err := runtimepprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(errw, "fpgad:", err)
			f.Close()
			return 1
		}
		defer func() {
			runtimepprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *mutexProfile != "" {
		defer func() {
			f, err := os.Create(*mutexProfile)
			if err != nil {
				fmt.Fprintln(errw, "fpgad:", err)
				return
			}
			defer f.Close()
			if err := runtimepprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fmt.Fprintln(errw, "fpgad:", err)
			}
		}()
	}
	cfg := pool.Config{Sys32: *sys32, Sys64: *sys64, Regions: *regions}
	if fs.Arg(0) == "floorplan" {
		return runFloorplan(cfg, out, errw)
	}
	if *compare {
		// The suites run their committed workloads and sweep every policy
		// × stream-mode × prefetch × region × shard configuration
		// themselves, so any single-run selection would be misleading.
		var single []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "sys32", "sys64", "n", "seed", "batch", "mix", "policy", "plan",
				"prefetch", "predictor", "window", "regions", "shards", "rate", "v":
				single = append(single, "-"+f.Name)
			}
		})
		if len(single) > 0 {
			fmt.Fprintf(errw, "fpgad: -compare runs the committed workload and configurations; %s only apply to single runs\n",
				strings.Join(single, " "))
			return 2
		}
		return runCompare(*jsonPath, *historyPath, *shaFlag, tracer, *tracePath, out, errw)
	}
	policy, err := sched.PolicyByName(*policyName)
	if err != nil {
		fmt.Fprintln(errw, "fpgad:", err)
		return 2
	}
	mix, err := sched.ParseMix(*mixSpec)
	if err != nil {
		fmt.Fprintln(errw, "fpgad:", err)
		return 2
	}
	opts := sched.Options{Batch: *batch, Policy: policy, Shards: *shards, Trace: tracer}
	if *prefetchOn {
		pred, err := predict.New(*predictorName)
		if err != nil {
			fmt.Fprintln(errw, "fpgad:", err)
			return 2
		}
		opts.Prefetch, opts.Predictor = true, pred
	}
	w, err := sched.GenWorkload(*seed, *n, mix)
	if err != nil {
		fmt.Fprintln(errw, "fpgad:", err)
		return 2
	}
	p, err := pool.New(cfg)
	if err != nil {
		fmt.Fprintln(errw, "fpgad:", err)
		return 2
	}
	p.SetPlanning(*planOn)
	streams := "planned (differential where safe)"
	if !*planOn {
		streams = "complete only"
	}
	prefetchDesc := "off"
	if *prefetchOn {
		prefetchDesc = "on (" + *predictorName + ")"
	}
	fmt.Fprintf(out, "pool: %d member(s); workload: %d request(s), mix %s, batch %d, policy %s, streams %s, prefetch %s, shards %d\n\n",
		p.Size(), *n, *mixSpec, *batch, policy.Name(), streams, prefetchDesc, *shards)

	s := sched.New(p, opts)
	failed := 0
	var results []sched.Result
	report := func(r sched.Result) {
		results = append(results, r)
		if r.Err != nil {
			failed++
			fmt.Fprintf(errw, "fpgad: request %d (%s): %v\n", r.ID, r.Task, r.Err)
			return
		}
		if *verbose {
			fmt.Fprintf(out, "req %3d %-20s member %d/r%d (%s)  stream %-12s %8d B  config %-12v work %v\n",
				r.ID, r.Task, r.Member, r.Region, r.System, r.Report.Kind, r.Report.BytesStreamed,
				r.Report.Config, r.Report.Work)
		}
	}
	var sojourns []sim.Time
	var makespan sim.Time
	start := time.Now()
	switch {
	case *rate > 0:
		// Open-loop: every request carries its generated Poisson arrival
		// stamp, counted from the pool's ready time, and submission never
		// waits for completions; its member's clock advances to the stamp,
		// so the result's sojourn is queue wait plus service.
		arr, err := bench.GenArrivals(*seed, *n, sim.Time(float64(sim.Second) / *rate))
		if err != nil {
			fmt.Fprintln(errw, "fpgad:", err)
			return 2
		}
		ready := bench.ReadyTime(p)
		chs := make([]<-chan sched.Result, len(w))
		for i := range w {
			chs[i] = s.SubmitAt(w[i], ready+arr[i])
		}
		for _, ch := range chs {
			r := <-ch
			report(r)
			if r.Err == nil {
				sojourns = append(sojourns, r.Sojourn)
				makespan = max(makespan, r.DoneAt-ready)
			}
		}
	case *window > 0:
		s.SubmitWindowed(w, *window, report)
	default:
		for _, ch := range s.SubmitAll(w) {
			report(<-ch)
		}
	}
	s.Wait()
	elapsed := time.Since(start)
	if *verbose {
		fmt.Fprintln(out)
	}
	st := s.Stats()
	bench.ThroughputTable(st, results).Format(out)
	if *rate > 0 && len(sojourns) > 0 {
		pct := bench.Percentiles(sojourns, 0.50, 0.95, 0.99)
		fmt.Fprintf(out, "open-loop: %.0f req/s offered (simulated), sojourn p50 %v p95 %v p99 %v, makespan %v, sustained %.0f req/s (real)",
			*rate, pct[0], pct[1], pct[2], makespan, float64(len(sojourns))/elapsed.Seconds())
		if st.Steals > 0 {
			fmt.Fprintf(out, ", %d steal(s) moved %d request(s)", st.Steals, st.StolenRequests)
		}
		fmt.Fprintln(out)
	}
	if *prefetchOn {
		fmt.Fprintf(out, "prefetch: %d issued, %d hits, %d aborted; hidden config %v, speculative %d B (%d B wasted)\n",
			st.PrefetchIssued, st.PrefetchHits, st.PrefetchAborted,
			st.HiddenConfig, st.PrefetchBytes, st.PrefetchWasted)
	}
	for _, m := range p.Snapshot() {
		state := "intact"
		if m.Corrupted {
			state = "CORRUPTED"
		}
		for _, r := range m.Regions {
			resident := r.Resident
			if resident == "" {
				resident = "(blank)"
			}
			fmt.Fprintf(out, "member %d (%s) %s: resident %-14s loads %-3d (%d complete / %d diff / %d aborted)  config time %-12v static %s\n",
				m.ID, m.System, r.Region, resident, r.Loads, r.CompleteLoads, r.DiffLoads, r.AbortedLoads, r.LoadTime, state)
		}
	}
	if *tracePath != "" {
		if err := writeTrace(tracer, *tracePath); err != nil {
			fmt.Fprintln(errw, "fpgad:", err)
			return 1
		}
		fmt.Fprintf(out, "trace: wrote %s (%d event(s))\n", *tracePath, tracer.Len())
	}
	if failed > 0 {
		fmt.Fprintf(errw, "fpgad: %d request(s) failed\n", failed)
		return 1
	}
	return 0
}

// runCompare runs every committed S-suite in table order — S3 stream
// planning, placement and prefetch, S4 region granularity, S6 shard
// scaling, S7 fault availability, S8 load paths, S9 latency SLOs —
// printing each table and optionally emitting the combined rows the CI
// bench gate diffs and appending their metrics to the per-commit history
// store. A non-empty tracePath records the S8 paired drive (the densest
// deterministic load-path exercise) as Chrome trace-event JSON.
func runCompare(jsonPath, historyPath, sha string,
	tracer *trace.Tracer, tracePath string, out, errw io.Writer) int {
	w := bench.DefaultWorkload()
	fmt.Fprintf(out, "comparing configurations on the committed workload: %d request(s), mix %s, batch %d, seed %d\n\n",
		w.N, w.Mix, w.Batch, w.Seed)
	suites, err := bench.Suites(w)
	if err != nil {
		fmt.Fprintln(errw, "fpgad:", err)
		return 1
	}
	var rows bench.Writer
	for _, s := range suites {
		if s.ID == "S8" {
			// Attach whenever a tracer exists: a -trace export gets the S8
			// paired drive, and a -pprof /metrics scrape sees the same
			// events live.
			for i := range s.Cases {
				s.Cases[i].Trace = tracer
			}
		}
		runs, err := s.Run()
		if err != nil {
			fmt.Fprintln(errw, "fpgad:", err)
			return 1
		}
		s.Table(runs).Format(out)
		rows = append(rows, s.Rows(runs)...)
	}
	if tracePath != "" {
		if err := writeTrace(tracer, tracePath); err != nil {
			fmt.Fprintln(errw, "fpgad:", err)
			return 1
		}
		fmt.Fprintf(out, "trace: wrote %s (%d event(s), S8 paired drive)\n", tracePath, tracer.Len())
	}
	if jsonPath != "" {
		if err := rows.WriteFile(jsonPath); err != nil {
			fmt.Fprintln(errw, "fpgad:", err)
			return 1
		}
		fmt.Fprintf(out, "wrote %s\n", jsonPath)
	}
	if historyPath != "" {
		if err := rows.AppendHistory(historyPath, sha); err != nil {
			fmt.Fprintln(errw, "fpgad:", err)
			return 1
		}
		fmt.Fprintf(out, "appended %d metric(s) to %s @ %s\n", len(rows.HistoryEntries(sha)), historyPath, sha)
	}
	return 0
}

// writeTrace renders the tracer's recorded events as Chrome trace-event
// JSON at path.
func writeTrace(tr *trace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runFloorplan prints every distinct floorplan of the pool configuration —
// region geometry, dock placement and ICAP stream addressing — and exits.
func runFloorplan(cfg pool.Config, out, errw io.Writer) int {
	p, err := pool.New(cfg)
	if err != nil {
		fmt.Fprintln(errw, "fpgad:", err)
		return 2
	}
	count := make(map[string]int)
	for _, m := range p.Members() {
		count[m.Sys.Name]++
	}
	seen := make(map[string]bool)
	for _, m := range p.Members() {
		if seen[m.Sys.Name] {
			continue
		}
		seen[m.Sys.Name] = true
		fmt.Fprintf(out, "floorplan of %s (%d member(s) in the pool):\n\n", m.Sys.Name, count[m.Sys.Name])
		bench.Floorplan(out, m.Sys)
	}
	return 0
}
