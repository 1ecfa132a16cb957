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
//	fpgad -compare -json BENCH_sched.json        # S2 + S3 + S4 + S6 + S7 + S8 + S9 on the committed workload
//	fpgad -compare -json BENCH_sched.json -history artifacts/bench/history.jsonl -sha abc1234
//	fpgad -compare -history ... -sha ... -samples 3   # + min/median noise entries for S2/S6
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
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/bench/gate"
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
		"run the S2 placement, S3 prefetch, S4 region, S6 scaling, S7 fault, S8 compression and S9 latency-SLO suites on their committed workloads instead of a single run")
	jsonPath := fs.String("json", "", "write machine-readable per-configuration records to this file")
	historyPath := fs.String("history", "",
		"append every emitted record's metrics to this per-commit history file (JSONL; plotted by cmd/benchboard)")
	shaFlag := fs.String("sha", "",
		"commit id keying the -history entries (required with -history)")
	tracePath := fs.String("trace", "",
		"write a Chrome trace-event JSON of the run to this file (load in Perfetto/chrome://tracing; with -compare, records the S8 paired drive)")
	samples := fs.Int("samples", 1,
		"with -compare and -history: rerun the nondeterministic suites (S2, S6) this many times and append min/median noise-estimation entries per metric")
	verbose := fs.Bool("v", false, "log every request")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
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
	if *historyPath != "" && *shaFlag == "" {
		fmt.Fprintln(errw, "fpgad: -history needs -sha (the commit id keying the entries)")
		return 2
	}
	if *samples < 1 {
		fmt.Fprintf(errw, "fpgad: -samples %d: at least one sample\n", *samples)
		return 2
	}
	if *samples > 1 && (!*compare || *historyPath == "") {
		fmt.Fprintln(errw, "fpgad: -samples estimates suite noise across -compare reruns and records it in -history — it needs both")
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
			case "sys32", "sys64", "n", "seed", "batch", "mix",
				"policy", "plan", "prefetch", "window", "regions", "shards", "rate":
				single = append(single, "-"+f.Name)
			}
		})
		if len(single) > 0 {
			fmt.Fprintf(errw, "fpgad: -compare runs the committed workload and configurations; %s only apply to single runs\n",
				strings.Join(single, " "))
			return 2
		}
		return runCompare(*jsonPath, *historyPath, *shaFlag, tracer, *tracePath, *samples, out, errw)
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
		// stamp and submission never waits for completions; the
		// scheduler's wall-clock overlay turns the stamps into sojourn
		// (queue wait + service) per request.
		arr, err := bench.GenArrivals(*seed, *n, "poisson", sim.Time(float64(sim.Second) / *rate))
		if err != nil {
			fmt.Fprintln(errw, "fpgad:", err)
			return 2
		}
		chs := make([]<-chan sched.Result, len(w))
		for i := range w {
			chs[i] = s.SubmitAt(w[i], arr[i])
		}
		for _, ch := range chs {
			r := <-ch
			report(r)
			if r.Err == nil {
				sojourns = append(sojourns, r.Sojourn)
				if r.DoneAt > makespan {
					makespan = r.DoneAt
				}
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
	bench.ThroughputTable(st, results...).Format(out)
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
		for _, r := range m.Regions {
			state := "intact"
			if r.Corrupted {
				state = "CORRUPTED"
			}
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
	if *jsonPath != "" {
		// Same label scheme as the -compare records, so trajectory
		// consumers see one series per configuration. A paced or prefetch
		// run is a different experiment than the canonical SubmitAll S2
		// series: it keys under its own table and label and drops the S2
		// rows' noise-tolerance band.
		c := bench.Case{Label: policy.Name() + "+complete-only", Policy: policy.Name(), CompleteOnly: !*planOn}
		if *planOn {
			c.Label = policy.Name() + "+planner"
		}
		if *prefetchOn {
			c.Predictor = *predictorName
		}
		rec := bench.PlacementSuite(bench.Workload{Seed: *seed, N: *n, Mix: *mixSpec, Batch: *batch}).Row(bench.Run{Case: c, Stats: st})
		if *prefetchOn || *window > 0 || *regions != 1 || *shards != 1 || *rate > 0 {
			r := &rec
			r.Table = "single"
			r.TolerancePct = 0
			if *regions != 1 {
				r.Label += fmt.Sprintf("+regions%d", *regions)
			}
			if *shards != 1 {
				r.Label += fmt.Sprintf("+shards%d", *shards)
				r.Shards = *shards
			}
			if *rate > 0 {
				r.Label += fmt.Sprintf("+rate%g", *rate)
				r.ArrivalProcess = "poisson"
				r.ThroughputRPS = float64(len(sojourns)) / elapsed.Seconds()
				if len(sojourns) > 0 {
					pct := bench.Percentiles(sojourns, 0.50, 0.95, 0.99)
					r.P50Ms = pct[0].Milliseconds()
					r.P95Ms = pct[1].Milliseconds()
					r.P99Ms = pct[2].Milliseconds()
				}
			}
			if *window > 0 {
				r.Label += fmt.Sprintf("+window%d", *window)
				r.Window = *window
			}
			if *prefetchOn {
				r.Label += "+prefetch-" + *predictorName
			}
		}
		w := bench.NewWriter(rec)
		if err := w.WriteFile(*jsonPath); err != nil {
			fmt.Fprintln(errw, "fpgad:", err)
			return 1
		}
		if *historyPath != "" {
			if err := w.AppendHistory(*historyPath, *shaFlag); err != nil {
				fmt.Fprintln(errw, "fpgad:", err)
				return 1
			}
		}
		fmt.Fprintf(out, "\nwrote %s\n", *jsonPath)
	}
	if failed > 0 {
		fmt.Fprintf(errw, "fpgad: %d request(s) failed\n", failed)
		return 1
	}
	return 0
}

// runCompare runs every committed S-suite in table order — S2 placement,
// S3 prefetch, S4 region granularity, S6 shard scaling, S7 fault
// availability, S8 load paths, S9 latency SLOs — printing each table and
// optionally emitting the combined rows the CI bench gate diffs and
// appending their metrics to the per-commit history store. A non-empty
// tracePath records the S8 paired drive (the densest deterministic
// load-path exercise) as Chrome trace-event JSON; samples > 1 reruns the
// nondeterministic suites and appends min/median noise entries.
func runCompare(jsonPath, historyPath, sha string,
	tracer *trace.Tracer, tracePath string, samples int, out, errw io.Writer) int {
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
		if samples > 1 {
			if err := appendNoise(suites, rows, samples, historyPath, sha, out); err != nil {
				fmt.Fprintln(errw, "fpgad:", err)
				return 1
			}
		}
	}
	return 0
}

// appendNoise estimates run-to-run noise on the nondeterministic suites
// (S2's concurrent placement, S6's real-throughput capacity drive): it
// reruns them samples-1 more times, then appends one "min" and one
// "median" history entry per metric over all the samples. The median is
// the lower middle of the sorted values, so it is always a measured value,
// never an interpolation. Deterministic suites reproduce byte-identically
// and would sample to K copies of one number, so they are skipped.
func appendNoise(suites []bench.Suite, first []bench.Row, samples int, historyPath, sha string, out io.Writer) error {
	type key struct{ suite, metric, unit string }
	vals := make(map[key][]float64)
	var order []key
	add := func(rows []bench.Row) {
		for _, r := range rows {
			if r.Deterministic() {
				continue
			}
			for _, m := range r.Metrics() {
				k := key{r.Suite(), r.Label + "/" + m.Name, m.Unit}
				if _, ok := vals[k]; !ok {
					order = append(order, k)
				}
				vals[k] = append(vals[k], m.Value)
			}
		}
	}
	add(first)
	var noisy []string
	for _, s := range suites {
		if gate.SuiteDeterministic(s.ID) {
			continue
		}
		noisy = append(noisy, s.ID)
		for i := 1; i < samples; i++ {
			runs, err := s.Run()
			if err != nil {
				return err
			}
			add(s.Rows(runs))
		}
	}
	var entries []gate.Entry
	for _, k := range order {
		v := append([]float64(nil), vals[k]...)
		sort.Float64s(v)
		for _, st := range []struct {
			name string
			val  float64
		}{{"min", v[0]}, {"median", v[(len(v)-1)/2]}} {
			entries = append(entries, gate.Entry{
				SHA: sha, Suite: k.suite, Metric: k.metric,
				Value: st.val, Unit: k.unit, Stat: st.name,
			})
		}
	}
	if err := gate.AppendEntries(historyPath, entries); err != nil {
		return err
	}
	fmt.Fprintf(out, "noise: %d sample(s) of %s — appended %d min/median entries to %s\n",
		samples, strings.Join(noisy, "+"), len(entries), historyPath)
	return nil
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
