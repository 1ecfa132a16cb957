package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. Simulated times carry the unit
// sim_ms or sim_us, host times ms, us, ns or s, so every number says which
// clock it was read from. BENCHMARK.json lists endToEnd and perLayer; a
// test keeps it in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the base median by which a metric may worsen
	// across seeds before -compare calls it regressed. Per-layer metrics
	// and the ungated end-to-end ones have none.
	Bound float64
	// Exact marks a metric that repeats digit for digit on a repeated
	// seed: everything read from the simulated clock or the scheduler's
	// counts, and the error rate. -compare holds it to no tolerance at all
	// when both sides ran the same seeds.
	Exact bool
}

// endToEnd is what a user of the simulator sees, reported by every
// untraced run and gated by BENCHMARK.json.
var endToEnd = []metricDef{
	{"host_req_per_s", "req/s", "higher", 0.24, false},
	{"setup_s", "s", "lower", 0.25, false},
	{"peak_rss_mb", "MB", "lower", 0.10, false},
	{"latency_p50_ms", "sim_ms", "lower", 0.20, true},
	{"latency_p99_ms", "sim_ms", "lower", 0.05, true},
	{"availability", "ratio", "higher", 0.10, true},
}

// ungated are the end-to-end metrics that can read exactly 0:
// config_visible_ms and wire_mb on hit-dispatch, which streams no
// configuration, and error_rate on every clean run. BENCHMARK.json admits
// only metrics that never read 0, so it does not list them; every
// untraced run still reports them, and -compare judges a zero base by
// the gate's absolute epsilon.
var ungated = []metricDef{
	{"config_visible_ms", "sim_ms", "lower", 0, true},
	{"wire_mb", "MB", "lower", 0, true},
	{"error_rate", "failed/attempted", "lower", 0, true},
}

// hostLayers are the internal packages whose share of drive-phase CPU
// samples the traced run reports; "other" collects the remaining internal
// packages, and "runtime" every sample with no repro/internal frame.
var hostLayers = []string{"bitstream", "fabric", "bitlinker", "core", "plan", "platform",
	"sched", "tasks", "bus", "cpu", "memctl", "icap", "sim", "runtime", "other"}

// perLayer is what the traced run reports, named <module>.<metric>.
var perLayer = append([]metricDef{
	{"sched.hit_ratio", "ratio", "higher", 0, true},
	{"sched.prefetch_issued", "count", "lower", 0, true},
	{"sched.prefetch_useful_ratio", "ratio", "higher", 0, true},
	{"sched.prefetch_wasted_mb", "MB", "lower", 0, true},
	{"sched.hidden_config_ms", "sim_ms", "higher", 0, true},
	{"sched.overlap_config_ms", "sim_ms", "higher", 0, true},
	{"sched.faults_detected", "count", "higher", 0, true},
	{"sched.repairs", "count", "higher", 0, true},
	{"sched.requeues", "count", "lower", 0, true},
	{"sched.repair_config_ms", "sim_ms", "lower", 0, true},
	{"sched.roundtrip_us", "us", "lower", 0, false},
	{"plan.diff_loads", "count", "higher", 0, true},
	{"plan.complete_loads", "count", "lower", 0, true},
	{"plan.compressed_loads", "count", "higher", 0, true},
	{"core.config_ms.diff", "sim_ms", "lower", 0, true},
	{"core.config_ms.complete", "sim_ms", "lower", 0, true},
	{"core.config_ms.compressed", "sim_ms", "lower", 0, true},
	{"core.hazard_refusals", "count", "lower", 0, true},
	{"core.demotions", "count", "lower", 0, true},
	{"core.load_ms.diff", "ms", "lower", 0, false},
	{"core.load_ms.complete", "ms", "lower", 0, false},
	{"core.load_ms.compressed", "ms", "lower", 0, false},
	{"core.scrub_ms", "ms", "lower", 0, false},
	{"bitstream.crc_ns_per_word", "ns", "lower", 0, false},
	{"bitstream.load_ns_per_word", "ns", "lower", 0, false},
	{"bitstream.compress_ms", "ms", "lower", 0, false},
	{"bitstream.decode_ns_per_word", "ns", "lower", 0, false},
	{"bitlinker.assemble_ms", "ms", "lower", 0, false},
	{"bitlinker.assemble_diff_ms", "ms", "lower", 0, false},
	{"platform.boot_s", "s", "lower", 0, false},
	{"platform.exec_hit_us", "us", "lower", 0, false},
	{"tasks.compute_ms", "sim_ms", "lower", 0, true},
	{"icap.dma_loads", "count", "higher", 0, true},
	{"icap.wire_mb", "MB", "lower", 0, true},
	{"trace.overhead_pct", "%", "lower", 0, false},
}, shareDefs()...)

func shareDefs() []metricDef {
	out := make([]metricDef, len(hostLayers))
	for i, l := range hostLayers {
		out[i] = metricDef{"host_share." + l, "ratio", "lower", 0, false}
	}
	return out
}

// allDefs is every definition in report order.
var allDefs = [][]metricDef{endToEnd, ungated, perLayer}

// metricByName finds a definition among all lists.
func metricByName(name string) (metricDef, bool) {
	for _, list := range allDefs {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's values under their definitions' units.
type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	d, ok := metricByName(name)
	if !ok {
		panic("benchmark: undefined metric " + name)
	}
	m[name] = metric{Value: v, Unit: d.Unit}
}

// record is one workload's outcome: the body of a -json file and of the
// last output line, which carries only correct, attempted, failed and
// metrics.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Seconds is the minimum host time of each drive; -compare refuses
	// sides that ran under different lengths.
	Seconds float64 `json:"seconds"`
	Trace   int     `json:"trace"`
	// Slowdown is the host's median slowdown over the untraced drive;
	// host_req_per_s divided by it is the rate the wall clock read.
	Slowdown float64 `json:"slowdown,omitempty"`
	// N is the simulated prefix every simulated metric covers; Attempted
	// counts every request the run's drives sent.
	N          int      `json:"n"`
	Correct    bool     `json:"correct"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Metrics    metrics  `json:"metrics"`
	Violations []string `json:"violations,omitempty"`
}

// median returns the middle value (mean of the middle two).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the method of Python's
// statistics.quantiles(xs, n=4) (exclusive), the method the benchmark's
// spread rule is stated in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
