package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/bitstream"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// run spawns its set-up children (-boot).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-boot" {
		code, err := benchmain()
		if err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
		}
		os.Exit(code)
	}
	os.Exit(m.Run())
}

// tiny returns the named workload cut down to a simulated prefix of n,
// one block long.
func tiny(t *testing.T, name string, n int) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.n, w.block = n, n
	return w
}

// TestSimulatedMetricsRepeatAndHeldOutSeedRunsClean drives every workload
// twice on the held-out seed: both runs must pass every correctness check
// and report identical simulated metrics and prefix statistics.
func TestSimulatedMetricsRepeatAndHeldOutSeedRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload twice")
	}
	// 25 scrub-fault requests take four upsets through detection and repair.
	for name, n := range map[string]int{"paced-prefetch": 10, "paired-dma": 10, "scrub-fault": 25, "hit-dispatch": 64} {
		w := tiny(t, name, n)
		var sims []metrics
		var stats []sched.Stats
		for i := 0; i < 2; i++ {
			d, err := w.run(11, 0, nil, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if d.failed > 0 || len(d.violations) > 0 {
				t.Fatalf("%s: %d failed, violations %q", name, d.failed, d.violations)
			}
			sims = append(sims, d.simulated())
			// Which slot serves which request is host timing on
			// hit-dispatch's 64-wide window; everything else repeats.
			st := d.prefix
			st.Slots, st.BusyTime = nil, nil
			stats = append(stats, st)
		}
		if len(sims[0]) != 5 {
			t.Fatalf("%s: simulated metrics %v", name, sims[0])
		}
		for k, v := range sims[0] {
			if sims[1][k] != v {
				t.Errorf("%s: %s %v then %v", name, k, v.Value, sims[1][k].Value)
			}
		}
		if !reflect.DeepEqual(stats[0], stats[1]) {
			t.Errorf("%s: prefix stats differ:\n%+v\n%+v", name, stats[0], stats[1])
		}
	}
}

// TestCheckerRejectsConservationViolation fabricates broken statistics and
// traces: each broken law must be reported, and the intact ones not.
func TestCheckerRejectsConservationViolation(t *testing.T) {
	good := sched.Stats{Requests: 10, Done: 10, Hits: 6, Misses: 4,
		PrefetchBytes: 100, PrefetchConsumed: 50, PrefetchWasted: 30, PrefetchPending: 20,
		FaultsDetected: 2, Repairs: 2}
	if v := statsViolations(good, 10, "t"); len(v) != 0 {
		t.Fatalf("intact stats flagged: %q", v)
	}
	for name, mutate := range map[string]func(*sched.Stats){
		"prefetch bytes": func(s *sched.Stats) { s.PrefetchWasted++ },
		"repairs":        func(s *sched.Stats) { s.Repairs-- },
		"hits":           func(s *sched.Stats) { s.Misses++ },
		"done":           func(s *sched.Stats) { s.Done-- },
	} {
		bad := good
		mutate(&bad)
		if v := statsViolations(bad, 10, "t"); len(v) == 0 {
			t.Errorf("%s: violation not reported", name)
		}
	}

	st := sched.Stats{Config: 5, Slots: []sched.SlotID{{Member: 0, Region: 1}}, BusyTime: []sim.Time{12}}
	spans := newSpanSums()
	spans.add(trace.Event{Kind: trace.KindConfig, Member: 0, Region: 1, Dur: 5})
	spans.add(trace.Event{Kind: trace.KindCompute, Member: 0, Region: 1, Dur: 7})
	if v := spans.check(st); len(v) != 0 {
		t.Fatalf("intact trace flagged: %q", v)
	}
	spans.add(trace.Event{Kind: trace.KindConfig, Member: 0, Region: 1, Dur: 1})
	if v := spans.check(st); len(v) != 2 {
		t.Fatalf("extra config span: violations %q, want the slot's and the total's", v)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEmittedNamesMatchBenchmarkJSON checks that BENCHMARK.json lists the
// benchmark's workloads, run length and metric definitions, then runs one
// workload untraced and traced: every metric name either emits must be
// well formed, and the last line must carry exactly the ones BENCHMARK.json
// lists, with the same units.
func TestEmittedNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the benchmark's default %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %q: %q here", i, w, workloads[i].name, workloads[i].why)
		}
		if workloads[i].n%workloads[i].block != 0 {
			t.Errorf("%s: block %d does not divide the prefix %d", w.Name, workloads[i].block, workloads[i].n)
		}
	}
	want := func(list []metricDef, got []metricDef, kind string) map[string]string {
		if len(list) != len(got) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(list))
		}
		units := map[string]string{}
		for i, d := range list {
			d.Exact = false // BENCHMARK.json does not say
			if got[i] != d {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v here", kind, i, got[i], d)
			}
			units[d.Name] = d.Unit
		}
		return units
	}
	var e2e, layer []metricDef
	for _, d := range spec.EndToEnd {
		e2e = append(e2e, metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range spec.PerLayer {
		layer = append(layer, metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	listed := []map[string]string{want(endToEnd, e2e, "end_to_end"), want(perLayer, layer, "per_layer")}
	if testing.Short() {
		return
	}

	w := tiny(t, "paired-dma", 10)
	for traced, units := range listed {
		r, err := measure(w, 7, 0, traced == 1)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct {
			t.Fatalf("trace %d: violations %q", traced, r.Violations)
		}
		for name := range r.Metrics {
			if !nameRE.MatchString(name) {
				t.Errorf("malformed metric name %q", name)
			}
		}
		list := endToEnd
		if traced == 1 {
			list = perLayer
		}
		var line struct{ Metrics metrics }
		data, err := json.Marshal(lastLine([]record{r}, list))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &line); err != nil {
			t.Fatal(err)
		}
		if len(line.Metrics) != len(units) {
			t.Errorf("trace %d: last line carries %d metrics, BENCHMARK.json lists %d", traced, len(line.Metrics), len(units))
		}
		for name, v := range line.Metrics {
			if units[name] != v.Unit {
				t.Errorf("trace %d: %s emitted in %q, BENCHMARK.json says %q", traced, name, v.Unit, units[name])
			}
		}
	}
}

// TestSeed7ReplaysGenWorkload pins the inputs: at seed 7 every workload's
// requests are sched.GenWorkload(7, n, mix) itself, and any other seed
// keeps the same module order with other payloads.
func TestSeed7ReplaysGenWorkload(t *testing.T) {
	for _, w := range workloads {
		mix, err := sched.ParseMix(w.mix)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := sched.GenWorkload(7, w.n, mix)
		if err != nil {
			t.Fatal(err)
		}
		at7, err := w.requests(7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(at7, gen) {
			t.Errorf("%s: seed 7 requests differ from GenWorkload(7, %d)", w.name, w.n)
		}
		at11, err := w.requests(11)
		if err != nil {
			t.Fatal(err)
		}
		same := 0
		for i := range gen {
			if at11[i].Module() != gen[i].Module() {
				t.Fatalf("%s: request %d needs %s at seed 11, %s at seed 7", w.name, i, at11[i].Module(), gen[i].Module())
			}
			if at11[i] == gen[i] {
				same++
			}
		}
		if same == len(gen) {
			t.Errorf("%s: seed 11 drew seed 7's payloads", w.name)
		}
	}
}

// TestCompareRefusesMixedRunLengths: host rates of drives of different
// lengths do not compare, so neither do their run files.
func TestCompareRefusesMixedRunLengths(t *testing.T) {
	dir := t.TempDir()
	for _, side := range []struct {
		name    string
		seconds float64
	}{{"base", 15}, {"head", 5}} {
		if err := os.Mkdir(dir+"/"+side.name, 0o755); err != nil {
			t.Fatal(err)
		}
		rec := record{Workload: "paired-dma", Seed: 7, Seconds: side.seconds, Metrics: metrics{}}
		rec.Metrics.set("host_req_per_s", 80)
		data, err := json.Marshal([]record{rec})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir+"/"+side.name+"/run.json", data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := compare(&out, []string{dir + "/base/run.json", dir + "/head/run.json"}); err == nil {
		t.Fatalf("compared 15 s runs against 5 s runs:\n%s", out.String())
	}
}

// TestProfileAttributionSumsToSamples records a CPU profile of CRC work in
// the test and decodes it: the per-layer counts must sum to the sample
// total, and the CRC loop must land on bitstream.
func TestProfileAttributionSumsToSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	words := make([]uint32, 1<<16)
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		crcSink = bitstream.FrameCRC(crcSink, words)
	}
	pprof.StopCPUProfile()
	samples, err := readProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var total, attributed int64
	for _, s := range samples {
		total += s.count
	}
	counts := attribute(samples)
	for _, c := range counts {
		attributed += c
	}
	if total == 0 || attributed != total {
		t.Fatalf("attributed %d of %d samples", attributed, total)
	}
	if counts["bitstream"]*2 < total {
		t.Errorf("bitstream got %d of %d samples of a CRC loop: %v", counts["bitstream"], total, counts)
	}
	m := metrics{}
	hostShares(counts, m)
	sum := 0.0
	for _, l := range hostLayers {
		sum += m["host_share."+l].Value
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("host shares sum to %v", sum)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestVerdict covers each -compare outcome for both directions, with
// seeds paired and not.
func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "host_req_per_s", Unit: "req/s", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "latency_p50_ms", Unit: "sim_ms", Better: "lower", Bound: 0.10, Exact: true}
	zero := metricDef{Name: "config_visible_ms", Unit: "sim_ms", Better: "lower", Exact: true}
	// seeds spreads values over seeds 1, 2, 3, ...; base sides use them,
	// so a head of seeds gives paired seeds and a head of other does not.
	seeds := func(xs ...float64) bySeed {
		s := bySeed{}
		for i, x := range xs {
			s[int64(i+1)] = []float64{x}
		}
		return s
	}
	other := func(xs ...float64) bySeed {
		s := bySeed{}
		for i, x := range xs {
			s[int64(i+100)] = []float64{x}
		}
		return s
	}
	for _, c := range []struct {
		d          metricDef
		base, head bySeed
		want       string
	}{
		{lower, seeds(1, 1, 1), seeds(1, 1, 1), "unchanged"},
		{lower, seeds(1, 1, 1), seeds(1.05, 1.05, 1.05), "unchanged"},
		{lower, seeds(1, 1, 1), seeds(1.2, 1.2, 1.2), "regressed"},
		{lower, seeds(1, 1, 1), seeds(0.95, 0.95, 0.95), "unchanged"},
		{lower, seeds(1, 1, 1), seeds(0.8, 0.8, 0.8), "improved"},
		{lower, seeds(0.5, 1, 1.5), seeds(0.9, 1.4, 2), "unresolved"},
		{lower, seeds(1.5, 2, 2.5), seeds(0.5, 1, 1.4), "improved"},
		{lower, seeds(0.5, 1, 1.4), seeds(1.5, 2, 2.5), "regressed"},
		{higher, seeds(100, 101, 102), seeds(80, 81, 82), "regressed"},
		{higher, seeds(100, 101, 102), seeds(120, 121, 122), "improved"},
		// Paired seeds hold an exact metric to no tolerance, where its
		// bound across seeds would pass a 5% move.
		{exact, seeds(1, 2, 3), seeds(1, 2, 3), "unchanged"},
		{exact, seeds(1, 2, 3), seeds(1, 2.1, 3), "regressed"},
		{exact, seeds(1, 2, 3), seeds(1, 1.9, 3), "improved"},
		{exact, seeds(1, 2, 3), seeds(1.1, 1.9, 3), "unresolved"},
		{exact, seeds(1, 1, 1), other(1.05, 1.05, 1.05), "unchanged"},
		// A zero base is judged by the gate's absolute epsilon.
		{zero, other(0, 0, 0), seeds(0.001, 0.001, 0.001), "unchanged"},
		{zero, other(0, 0, 0), seeds(0.5, 0.5, 0.5), "regressed"},
	} {
		if got := verdict(c.d, c.base, c.head); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.base, c.head, got, c.want)
		}
	}
}
