package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// drive is one timed run of a workload over a freshly booted pool.
type drive struct {
	w      workload
	p      *pool.Pool
	s      *sched.Scheduler
	faults map[int][]fault.Event

	done, failed int
	// lats and configByKind cover the simulated prefix only.
	lats         []sim.Time
	configByKind map[plan.StreamKind]sim.Time
	// prefix is the scheduler's statistics at the end of the simulated
	// prefix, a quiet point, so they repeat exactly run to run.
	prefix sched.Stats
	// setup is the scaled host seconds of this process's one cold set-up.
	setup float64
	// wall is the host time of the timed blocks, and slowdowns the host's
	// slowdown measured after each.
	wall       time.Duration
	slowdowns  []float64
	spans      *spanSums
	violations []string
}

// rate is the drive's requests per host second, scaled to the reference
// host by the median slowdown.
func (d *drive) rate() float64 {
	return float64(d.done) / d.wall.Seconds() * median(d.slowdowns)
}

func (d *drive) record(r sched.Result) {
	d.done++
	if r.Err != nil {
		d.failed++
		if d.failed == 1 {
			d.violate("request %d (%s) failed: %v", r.ID, r.Task, r.Err)
		}
	}
	if d.done <= d.w.n {
		d.lats = append(d.lats, r.Latency())
		d.configByKind[r.Report.Kind] += r.Report.Config
	}
}

func (d *drive) violate(format string, args ...any) {
	d.violations = append(d.violations, fmt.Sprintf(format, args...))
}

// setup boots the workload's pool and finishes its set-up, the work that
// setup_s times, and returns the host seconds it took scaled to the
// reference host by the slowdowns measured just before and after.
func (w workload) setup() (*pool.Pool, sched.Options, float64, error) {
	before := slowdown()
	t0 := time.Now()
	p, err := pool.New(w.pool)
	if err != nil {
		return nil, sched.Options{}, 0, err
	}
	opts, err := w.prepare(p)
	took := time.Since(t0).Seconds()
	return p, opts, took / ((before + slowdown()) / 2), err
}

// run boots the workload and drives it from one goroutine: block after
// block, through the requests and round again, until the simulated prefix
// is done and at least seconds of host time have passed. tr, when non-nil,
// traces the drive, and the trace's span sums over the prefix are kept;
// prof, when non-nil, receives a CPU profile of the drive phase.
func (w workload) run(seed int64, seconds time.Duration, tr *trace.Tracer, prof io.Writer) (*drive, error) {
	p, opts, setup, err := w.setup()
	if err != nil {
		return nil, err
	}
	d := &drive{w: w, p: p, setup: setup, configByKind: make(map[plan.StreamKind]sim.Time)}
	reqs, err := w.requests(seed)
	if err != nil {
		return nil, err
	}
	if w.upsets {
		scs, err := fault.Campaign("uniform", traceSeed, w.n, fault.PoolSlots(p))
		if err != nil {
			return nil, err
		}
		d.faults = faultsByDone(scs[0])
	}
	if tr != nil {
		d.spans = newSpanSums()
		tr.SetSink(d.spans.add)
		opts.Trace = tr
	}
	d.s = sched.New(p, opts)
	runtime.GC()
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	// A profiled drive needs samples, not the simulated prefix: it stops
	// once seconds have passed.
	prefix := prof == nil
	for k := 0; k == 0 || prefix && k*w.block < w.n || time.Since(start) < seconds; k++ {
		at := k * w.block % w.n
		t0 := time.Now()
		w.drive(d, reqs[at:at+w.block])
		d.wall += time.Since(t0)
		if prof == nil { // the calibration loops would land in the profile
			d.slowdowns = append(d.slowdowns, slowdown())
		}
		if (k+1)*w.block == w.n {
			d.prefix = d.s.Stats()
			d.checkStats(d.prefix, w.n, "after the simulated prefix")
			// Later blocks run on however far the host got, so only the
			// prefix feeds the span sums.
			tr.SetSink(nil)
		}
		tr.Reset()
	}
	if prof != nil {
		pprof.StopCPUProfile()
	}
	settle(d.s)
	d.s.Wait()
	d.checkStats(d.s.Stats(), d.done, "at the end of the drive")
	for _, m := range p.Snapshot() {
		if m.Corrupted {
			d.violate("member %d corrupted", m.ID)
		}
	}
	if d.spans != nil {
		d.violations = append(d.violations, d.spans.check(d.prefix)...)
	}
	return d, nil
}

// checkStats appends a violation for every conservation law the
// scheduler's statistics break at a quiet point after want requests.
func (d *drive) checkStats(st sched.Stats, want int, when string) {
	d.violations = append(d.violations, statsViolations(st, want, when)...)
}

func statsViolations(st sched.Stats, want int, when string) []string {
	var v []string
	add := func(format string, args ...any) { v = append(v, when+": "+fmt.Sprintf(format, args...)) }
	if st.Requests != uint64(want) || st.Done != uint64(want) {
		add("requests %d, done %d, want %d", st.Requests, st.Done, want)
	}
	if st.Hits+st.Misses != st.Done {
		add("hits %d + misses %d != done %d", st.Hits, st.Misses, st.Done)
	}
	if st.PrefetchBytes != st.PrefetchConsumed+st.PrefetchWasted+st.PrefetchPending {
		add("prefetch bytes %d != consumed %d + wasted %d + pending %d",
			st.PrefetchBytes, st.PrefetchConsumed, st.PrefetchWasted, st.PrefetchPending)
	}
	if st.FaultsDetected != st.Repairs {
		add("faults detected %d != repairs %d", st.FaultsDetected, st.Repairs)
	}
	return v
}

// simulated returns the simulated end-to-end metrics of the prefix.
func (d *drive) simulated() metrics {
	m := metrics{}
	pct := bench.Percentiles(d.lats, 0.50, 0.99)
	m.set("latency_p50_ms", pct[0].Milliseconds())
	m.set("latency_p99_ms", pct[1].Milliseconds())
	m.set("availability", availability(d.prefix))
	m.set("config_visible_ms", d.prefix.Config.Milliseconds())
	m.set("wire_mb", float64(d.prefix.BytesStreamed)/1e6)
	return m
}

// availability is the useful-work share of the pool's busy simulated time:
// visible, speculative and repair configuration all count against it.
func availability(st sched.Stats) float64 {
	total := st.Work + st.Config + st.PrefetchConfig + st.RepairConfig
	if total == 0 {
		return 1
	}
	return float64(st.Work) / float64(total)
}

// spanSums folds trace events into per-(member, region, kind) duration
// sums and per-kind counts as they are emitted, so a long traced drive
// keeps no event list. The tracer calls add under its own lock.
type spanSums struct {
	dur   map[slotKind]sim.Time
	count map[trace.Kind]int
}

type slotKind struct {
	member, region int32
	kind           trace.Kind
}

func newSpanSums() *spanSums {
	return &spanSums{dur: make(map[slotKind]sim.Time), count: make(map[trace.Kind]int)}
}

func (a *spanSums) add(e trace.Event) {
	a.dur[slotKind{e.Member, e.Region, e.Kind}] += e.Dur
	a.count[e.Kind]++
}

// check holds the trace to the scheduler's accounting: the config spans
// of all slots sum to Stats.Config, and each slot's config plus compute
// spans sum to its busy time.
func (a *spanSums) check(st sched.Stats) []string {
	var v []string
	var config sim.Time
	for i, slot := range st.Slots {
		c := a.dur[slotKind{int32(slot.Member), int32(slot.Region), trace.KindConfig}]
		w := a.dur[slotKind{int32(slot.Member), int32(slot.Region), trace.KindCompute}]
		config += c
		if c+w != st.BusyTime[i] {
			v = append(v, fmt.Sprintf("member %d region %d: config+compute spans %v != busy time %v",
				slot.Member, slot.Region, c+w, st.BusyTime[i]))
		}
	}
	if config != st.Config {
		v = append(v, fmt.Sprintf("config spans sum to %v, Stats.Config %v", config, st.Config))
	}
	return v
}
