// Command benchmark is the repository's benchmark: four seeded workloads
// driven closed-loop through the scheduler's public API, reporting host
// and simulated end-to-end metrics, or, with -trace 1, per-layer metrics
// from a traced drive, a CPU profile and a ladder of timed calls into each
// layer. See README.md for the workloads, metrics and bounds.
//
//	bash benchmark/run.sh -workload all -seed 7 -json out.json
//	bash benchmark/run.sh -workload paced-prefetch -trace 1
//	bash benchmark/run.sh -compare base/*.json head/*.json
//
// go -C benchmark run . <flags> does the same with Go's usual caches.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any correctness violation
// exits 1 after printing it; a usage or set-up error exits 2 without it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/plan"
	"repro/internal/trace"
)

func main() {
	code, err := benchmain()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	os.Exit(code)
}

// runSeconds is the minimum host time of each drive. BENCHMARK.json's
// run_seconds says the same, and its callers pass it as -seconds; the
// tests pass 0 to run a drive only through its simulated prefix.
const runSeconds = 10

func benchmain() (int, error) {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 7, "payload seed (11 is held out for claims)")
	seconds := flag.Float64("seconds", runSeconds, "minimum host seconds each drive runs")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead")
	jsonOut := flag.String("json", "", "write the run's records to this file")
	cmp := flag.Bool("compare", false, "compare run files: -compare base/*.json head/*.json")
	boot := flag.Bool("boot", false, "set up the workload once, print the seconds it took and exit (setup_s child)")
	child := flag.Bool("record", false, "print the record as JSON instead of the report (-workload all child)")
	flag.Parse()
	if *cmp {
		if err := compare(os.Stdout, flag.Args()); err != nil {
			return 2, err
		}
		return 0, nil
	}
	if *traced != 0 && *traced != 1 || *seconds < 0 || flag.NArg() > 0 {
		flag.Usage()
		return 2, errors.New("bad arguments")
	}
	ws := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			return 2, err
		}
		ws = []workload{w}
	}
	if *boot {
		if len(ws) != 1 {
			return 2, errors.New("-boot needs one workload")
		}
		_, _, t, err := ws[0].setup()
		if err != nil {
			return 2, err
		}
		fmt.Println(t)
		return 0, nil
	}

	dur := time.Duration(*seconds * float64(time.Second))
	var recs []record
	if len(ws) == 1 {
		r, err := measure(ws[0], *seed, dur, *traced == 1)
		if err != nil {
			return 2, err
		}
		r.Seconds = *seconds
		recs = []record{r}
	} else {
		// One child process per workload, so each one's peak RSS and
		// set-up are its own.
		for _, w := range ws {
			r, err := measureChild("-workload", w.name, "-record", "-seed", fmt.Sprint(*seed),
				"-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*traced))
			if err != nil {
				return 2, err
			}
			recs = append(recs, r)
		}
	}
	if *child {
		return exitCode(recs), json.NewEncoder(os.Stdout).Encode(recs[0])
	}
	listed := endToEnd
	if *traced == 1 {
		listed = perLayer
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			return 2, err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return 2, err
		}
	}
	out := bufio.NewWriter(os.Stdout)
	for _, r := range recs {
		report(out, r)
	}
	if err := json.NewEncoder(out).Encode(lastLine(recs, listed)); err != nil {
		return 2, err
	}
	return exitCode(recs), out.Flush()
}

func exitCode(recs []record) int {
	for _, r := range recs {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// measure runs one workload and returns its record: the end-to-end
// metrics from an untraced drive, or with traced the per-layer metrics.
func measure(w workload, seed int64, seconds time.Duration, traced bool) (record, error) {
	r := record{Workload: w.name, Seed: seed, N: w.n, Metrics: metrics{}}
	if traced {
		if err := tracedRun(w, seed, seconds, &r); err != nil {
			return r, err
		}
		r.Trace = 1
	} else {
		setups, err := childSetups(w, 2)
		if err != nil {
			return r, err
		}
		d, err := w.run(seed, seconds, nil, nil)
		if err != nil {
			return r, err
		}
		r.Metrics = d.simulated()
		r.Metrics.set("host_req_per_s", d.rate())
		r.Metrics.set("setup_s", median(append(setups, d.setup)))
		r.Slowdown = median(d.slowdowns)
		rss, err := peakRSSMB()
		if err != nil {
			return r, err
		}
		r.Metrics.set("peak_rss_mb", rss)
		r.Metrics.set("error_rate", float64(d.failed)/float64(d.done))
		r.Attempted, r.Failed, r.Violations = d.done, d.failed, d.violations
	}
	r.Correct = r.Failed == 0 && len(r.Violations) == 0
	return r, nil
}

// tracedRun measures the per-layer metrics from three drives and the
// ladder: an untraced drive under a CPU profile gives the layer shares,
// without the tracer's own cost in them; a plain drive, neither traced
// nor profiled, gives the rate and the simulated metrics the traced drive
// is held to; the traced drive gives the trace counts and its overhead.
func tracedRun(w workload, seed int64, seconds time.Duration, r *record) error {
	run := func(tr *trace.Tracer, prof io.Writer) (*drive, error) {
		// Release the previous drive's pool before the next boots:
		// hit-dispatch's holds about 450 MB.
		runtime.GC()
		debug.FreeOSMemory()
		d, err := w.run(seed, seconds, tr, prof)
		if err != nil {
			return nil, err
		}
		r.Attempted += d.done
		r.Failed += d.failed
		r.Violations = append(r.Violations, d.violations...)
		return d, nil
	}
	var prof bytes.Buffer
	if _, err := run(nil, &prof); err != nil {
		return err
	}
	samples, err := readProfile(&prof)
	if err != nil {
		return err
	}
	hostShares(attribute(samples), r.Metrics)

	plain, err := run(nil, nil)
	if err != nil {
		return err
	}
	plainRate, plainSim := plain.rate(), plain.simulated()
	plain = nil
	d, err := run(trace.New(), nil)
	if err != nil {
		return err
	}
	for name, v := range d.simulated() {
		if plainSim[name] != v {
			r.Violations = append(r.Violations, fmt.Sprintf("traced %s %v != untraced %v", name, v.Value, plainSim[name].Value))
		}
	}
	layerMetrics(d, r.Metrics)
	r.Metrics.set("trace.overhead_pct", 100*(plainRate-d.rate())/plainRate)
	d = nil
	runtime.GC()
	debug.FreeOSMemory()
	if err := ladder(w, r.Metrics); err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	return nil
}

// layerMetrics reports the traced drive's per-layer counts and simulated
// times, all over the simulated prefix.
func layerMetrics(d *drive, m metrics) {
	st := d.prefix
	useful := 0.0
	if st.PrefetchIssued > 0 {
		useful = float64(st.PrefetchHits) / float64(st.PrefetchIssued)
	}
	m.set("sched.hit_ratio", st.HitRate())
	m.set("sched.prefetch_issued", float64(st.PrefetchIssued))
	m.set("sched.prefetch_useful_ratio", useful)
	m.set("sched.prefetch_wasted_mb", float64(st.PrefetchWasted)/1e6)
	m.set("sched.hidden_config_ms", st.HiddenConfig.Milliseconds())
	m.set("sched.overlap_config_ms", st.OverlapConfig.Milliseconds())
	m.set("sched.faults_detected", float64(st.FaultsDetected))
	m.set("sched.repairs", float64(st.Repairs))
	m.set("sched.requeues", float64(st.Requeues))
	m.set("sched.repair_config_ms", st.RepairConfig.Milliseconds())
	m.set("plan.diff_loads", float64(st.DiffLoads))
	m.set("plan.complete_loads", float64(st.CompleteLoads))
	m.set("plan.compressed_loads", float64(st.CompressedLoads))
	m.set("core.config_ms.diff", d.configByKind[plan.StreamDifferential].Milliseconds())
	m.set("core.config_ms.complete", d.configByKind[plan.StreamComplete].Milliseconds())
	m.set("core.config_ms.compressed", d.configByKind[plan.StreamCompressed].Milliseconds())
	m.set("core.hazard_refusals", float64(d.spans.count[trace.KindHazard]))
	m.set("core.demotions", float64(d.spans.count[trace.KindDemote]))
	m.set("tasks.compute_ms", st.Work.Milliseconds())
	m.set("icap.dma_loads", float64(st.DMALoads))
	m.set("icap.wire_mb", float64(st.BytesStreamed+st.PrefetchBytes+st.RepairBytes)/1e6)
}

// childSetups times k cold set-ups of the workload, each in a fresh child
// process. setup_s is the median of these and the drive process's own
// set-up: one boot varies by a third, and a repeat in one process would
// hide any future process-wide cache.
func childSetups(w workload, k int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ts := make([]float64, k)
	for i := range ts {
		cmd := exec.Command(exe, "-boot", "-workload", w.name)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		if ts[i], err = strconv.ParseFloat(strings.TrimSpace(string(out)), 64); err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
	}
	return ts, nil
}

// measureChild runs one workload of -workload all in a child process
// started with args, and reads the record it prints. Exit code 1 still
// carries a record: the one with the violations.
func measureChild(args ...string) (record, error) {
	exe, err := os.Executable()
	if err != nil {
		return record{}, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 1) {
		return record{}, fmt.Errorf("child %q: %w", args, err)
	}
	var r record
	if err := json.Unmarshal(out, &r); err != nil {
		return record{}, fmt.Errorf("child %q: %w", args, err)
	}
	return r, nil
}

// peakRSSMB reads this process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// report prints one record for people: its identity, every metric with
// its unit, and any violation.
func report(w *bufio.Writer, r record) {
	fmt.Fprintf(w, "%s  seed %d  seconds %g  trace %d  n %d  attempted %d  failed %d  correct %v  gomaxprocs %d",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.N, r.Attempted, r.Failed, r.Correct, runtime.GOMAXPROCS(0))
	if r.Slowdown > 0 {
		fmt.Fprintf(w, "  host slowdown %.3f", r.Slowdown)
	}
	fmt.Fprintln(w)
	for _, list := range allDefs {
		for _, d := range list {
			if v, ok := r.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, v.Value, v.Unit)
			}
		}
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION %s\n", v)
	}
}

// lastLine is the final output line. Its metrics are the listed ones,
// those BENCHMARK.json names for the run's trace mode; with several
// workloads the names are prefixed by the workload's.
func lastLine(recs []record, listed []metricDef) any {
	out := struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{Correct: true, Metrics: metrics{}}
	for _, r := range recs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, d := range listed {
			v, ok := r.Metrics[d.Name]
			if !ok {
				continue
			}
			name := d.Name
			if len(recs) > 1 {
				name = r.Workload + "." + name
			}
			out.Metrics[name] = v
		}
	}
	return out
}
