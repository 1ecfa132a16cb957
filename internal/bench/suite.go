package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/pool"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tasks"
	"repro/internal/trace"
)

// Mix is the module mix of the committed S3, S4, S7 and S8 workload.
const Mix = "sha1=1,jenkins=2,patternmatch=1,brightness=2,blend=2,fade=2,transfer=1"

// Workload is the seeded request stream a suite drives: sched.GenWorkload
// over Mix with Seed and N, dispatched in same-module batches of up to
// Batch requests.
type Workload struct {
	Seed  int64
	N     int
	Mix   string
	Batch int
}

// DefaultWorkload is the committed seeded 60-request mixed workload of
// S3, S4, S7 and S8.
func DefaultWorkload() Workload { return Workload{Seed: 7, N: 60, Mix: Mix, Batch: 4} }

// DriveKind selects how Drive submits a workload.
type DriveKind int

const (
	// Paced submits one request at a time and settles the pool (member
	// released, speculative streams landed) after each completion.
	// Requests arrive against settled state, so the run is deterministic
	// and measures prediction and placement rather than host jitter.
	Paced DriveKind = iota
	// Paired submits two requests per SubmitBatch against a settled pool,
	// so the round-aware gang policy can co-locate a round's two misses on
	// sibling regions of one member. Deterministic like Paced.
	Paired
	// OpenLoop stamps every request with a seeded Poisson arrival at the
	// case's offered load and submits back-to-back from concurrent
	// feeders, never waiting for completions (SubmitAt).
	OpenLoop
)

// Case is one configuration row of a suite: the pool it boots, the
// scheduler and load-path settings, and how the workload is driven.
type Case struct {
	Label  string
	Pool   pool.Config
	Policy string
	// CompleteOnly turns the differential planner off: every miss
	// streams the complete configuration.
	CompleteOnly bool
	// Compress lets the planner choose compressed containers.
	Compress bool
	// Predictor guides speculative prefetch ("" = no prefetch).
	Predictor string
	DMA       bool
	Scrub     bool
	// Fault is injected between Paced completions; every injection is
	// followed by a full scrub pass.
	Fault fault.Scenario
	// Pin is loaded into every slot before the drive ("" = blank pool).
	Pin    string
	Shards int     // scheduler shards (0 = 1)
	Rho    float64 // offered load of an open-loop row
	Drive  DriveKind
	// Trace, when non-nil, records the run's scheduler and load-path
	// events.
	Trace *trace.Tracer
}

// Run is one case's outcome.
type Run struct {
	Case
	Stats sched.Stats
	// Boards and Slots are the booted pool's member and region counts.
	Boards, Slots int
	// Lats holds every request's latency (config + work) in completion
	// order; for open-loop rows, its sojourn (queue wait + service).
	Lats []sim.Time
	// MeanGap is an open-loop row's mean inter-arrival gap and Makespan
	// the simulated completion time of its trace. Elapsed is the host
	// wall-clock span of an OpenLoop drive, first submission to drained.
	MeanGap, Makespan sim.Time
	Elapsed           time.Duration
}

// Pct returns the nearest-rank quantiles of the run's Lats.
func (r Run) Pct(qs ...float64) []sim.Time { return Percentiles(r.Lats, qs...) }

// Availability is the fraction of the pool's busy simulated time spent on
// useful work rather than configuration — visible, speculative, or repair
// streams all count against it (hidden DMA window parts never do: they
// overlapped work or sibling streams by definition).
func (r Run) Availability() float64 {
	st := r.Stats
	total := st.Work + st.Config + st.PrefetchConfig + st.RepairConfig
	if total <= 0 {
		return 1
	}
	return float64(st.Work) / float64(total)
}

// RealThroughput is the sustained real-time dispatch rate of an OpenLoop
// drive in requests per second of host wall-clock time.
func (r Run) RealThroughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Stats.Done) / r.Elapsed.Seconds()
}

// SimThroughput is an open-loop row's completion rate in requests per
// simulated second.
func (r Run) SimThroughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(len(r.Lats)) / (float64(r.Makespan) / float64(sim.Second))
}

// Drive boots a fresh pool for the case, drives the workload through it
// and returns the run. Whether or not a request fails, Drive settles and
// drains the scheduler before it returns — no request, speculative or
// repair goroutine outlives the call — and a member left with a corrupted
// static design fails the run. The first error wins.
func Drive(w Workload, c Case) (Run, error) {
	run := Run{Case: c}
	reqs, p, s, err := boot(w, c)
	if err != nil {
		return run, err
	}
	run.Boards, run.Slots = p.Size(), p.Slots()
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	record := func(r sched.Result, lat sim.Time) {
		if r.Err != nil {
			fail(fmt.Errorf("bench: request %d (%s): %w", r.ID, r.Task, r.Err))
		}
		run.Lats = append(run.Lats, lat)
	}
	var start time.Time
	switch c.Drive {
	case Paced:
		cur, done := c.Fault.Cursor(), 0
		s.SubmitWindowed(reqs, 1, func(r sched.Result) {
			record(r, r.Latency())
			settle(s)
			done++
			due := cur.Due(done)
			for _, e := range due {
				if err := fault.Apply(p, e); err != nil {
					fail(fmt.Errorf("bench: fault after request %d: %w", done, err))
				}
			}
			if len(due) > 0 {
				s.ScrubAll()
				settle(s)
			}
		})
	case Paired:
		for i := 0; i < len(reqs); i += 2 {
			for _, ch := range s.SubmitBatch(reqs[i:min(i+2, len(reqs))]) {
				r := <-ch
				record(r, r.Latency())
			}
			settle(s)
		}
	case OpenLoop:
		if c.Rho <= 0 {
			fail(fmt.Errorf("bench: offered load %v", c.Rho))
			break
		}
		run.MeanGap = meanGap(p.Size(), c.Rho)
		arrivals, err := GenArrivals(w.Seed, len(reqs), run.MeanGap)
		if err != nil {
			fail(err)
			break
		}
		ready := ReadyTime(p)
		chs := make([]<-chan sched.Result, len(reqs))
		// Collect the boot and pin garbage now so no row pays another
		// row's GC debt during its timed drive.
		runtime.GC()
		start = time.Now()
		var fwg sync.WaitGroup
		for f := 0; f < feeders; f++ {
			fwg.Add(1)
			go func() {
				defer fwg.Done()
				// Striped: each feeder submits its slice of the trace in
				// increasing-arrival order, so the merged stream is
				// arrival-ordered up to feeder interleaving (concurrent
				// front-ends).
				for i := f; i < len(reqs); i += feeders {
					chs[i] = s.SubmitAt(reqs[i], ready+arrivals[i])
				}
			}()
		}
		fwg.Wait()
		for _, ch := range chs {
			r := <-ch
			record(r, r.Sojourn)
			run.Makespan = max(run.Makespan, r.DoneAt-ready)
		}
	}
	// Let the tail speculation land before Wait: Wait aborts whatever is
	// still in flight at a wall-clock-dependent point, which would make
	// the speculative counters vary run to run.
	settle(s)
	s.Wait()
	if !start.IsZero() {
		run.Elapsed = time.Since(start)
	}
	for _, m := range p.Snapshot() {
		if m.Corrupted {
			fail(fmt.Errorf("bench: member %d corrupted under %s", m.ID, c.Label))
		}
	}
	run.Stats = s.Stats()
	return run, firstErr
}

// boot generates the workload's requests and brings up the case's pool,
// with Pin resident in every slot, and its scheduler.
func boot(w Workload, c Case) ([]tasks.Runner, *pool.Pool, *sched.Scheduler, error) {
	policy, err := sched.PolicyByName(c.Policy)
	if err != nil {
		return nil, nil, nil, err
	}
	opts := sched.Options{Batch: w.Batch, Policy: policy, Shards: c.Shards,
		DMA: c.DMA, Scrub: c.Scrub, Trace: c.Trace}
	if c.Predictor != "" {
		pred, err := predict.New(c.Predictor)
		if err != nil {
			return nil, nil, nil, err
		}
		opts.Prefetch, opts.Predictor = true, pred
	}
	mix, err := sched.ParseMix(w.Mix)
	if err != nil {
		return nil, nil, nil, err
	}
	reqs, err := sched.GenWorkload(w.Seed, w.N, mix)
	if err != nil {
		return nil, nil, nil, err
	}
	p, err := pool.New(c.Pool)
	if err != nil {
		return nil, nil, nil, err
	}
	p.SetPlanning(!c.CompleteOnly)
	p.SetCompression(c.Compress)
	if c.Pin != "" {
		for _, m := range p.Members() {
			for ri := 0; ri < m.Sys.NumRegions(); ri++ {
				if _, err := m.Sys.LoadModuleOn(ri, c.Pin, nil); err != nil {
					return nil, nil, nil, fmt.Errorf("bench: pin %s on member %d region %d: %w", c.Pin, m.ID, ri, err)
				}
			}
		}
	}
	return reqs, p, sched.New(p, opts), nil
}

// ReadyTime is the latest member clock of a booted pool, the time an
// open-loop drive's arrivals and makespan count from.
func ReadyTime(p *pool.Pool) sim.Time {
	var t sim.Time
	for _, m := range p.Snapshot() {
		t = max(t, m.Now)
	}
	return t
}

// settle busy-waits until the scheduler has fully drained — no pending
// requests, no executing slot, no speculative stream in flight — the
// reproducibility discipline every paced bench run shares.
func settle(s *sched.Scheduler) {
	for !s.Drained() {
		time.Sleep(50 * time.Microsecond)
	}
}

// Suite is one S-table: the workload, the cases it drives (one row
// each), and how its table and wire rows read the runs.
type Suite struct {
	ID, Title string
	Columns   []string
	Workload  Workload
	Cases     []Case

	cells func(Run) []string
	notes func([]Run) []string
	// fill sets the suite's own wire fields beyond those Row derives
	// from every run.
	fill func(*Row, Run)
	// run replaces driving each case on its own, for suites whose rows
	// share one measurement (S9).
	run func(Suite) ([]Run, error)
}

// Suites returns the S-suites in table order — S3, S4, S6, S7, S8, S9 —
// with S3, S4, S7 and S8 on the given workload (the committed one is
// DefaultWorkload) and S6/S9 on their own capacity workload.
func Suites(w Workload) ([]Suite, error) {
	region, err := RegionSuite(w)
	if err != nil {
		return nil, err
	}
	faults, err := FaultSuite(w)
	if err != nil {
		return nil, err
	}
	return []Suite{
		PrefetchSuite(w), region, ScalingSuite(),
		faults, CompressSuite(w), SLOSuite(),
	}, nil
}

// Run drives the suite's cases in order.
func (s Suite) Run() ([]Run, error) {
	if s.run != nil {
		return s.run(s)
	}
	runs := make([]Run, 0, len(s.Cases))
	for _, c := range s.Cases {
		r, err := Drive(s.Workload, c)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", s.ID, c.Label, err)
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// Table renders the runs as the suite's table.
func (s Suite) Table(runs []Run) *Table {
	t := &Table{ID: s.ID, Title: s.Title, Columns: s.Columns}
	for _, r := range runs {
		t.AddRow(s.cells(r)...)
	}
	t.Notes = s.notes(runs)
	return t
}

// Rows lowers the runs to wire rows.
func (s Suite) Rows(runs []Run) []Row {
	rows := make([]Row, len(runs))
	for i, r := range runs {
		rows[i] = s.row(r)
	}
	return rows
}

// row lowers one run to its wire row under the suite's table ID.
func (s Suite) row(r Run) Row {
	st := r.Stats
	var busy float64
	for _, b := range st.BusyTime {
		busy += b.Microseconds()
	}
	row := Row{
		Table:         s.ID,
		Label:         r.Label,
		Policy:        r.Policy,
		Planner:       !r.CompleteOnly,
		Requests:      st.Done,
		Hits:          st.Hits,
		Misses:        st.Misses,
		HitRate:       st.HitRate(),
		DiffLoads:     st.DiffLoads,
		CompleteLoads: st.CompleteLoads,
		ConfigMs:      ms(st.Config),
		WorkMs:        ms(st.Work),
		BusyMs:        busy / 1e3,
		BytesStreamed: st.BytesStreamed,

		Predictor:           r.Predictor,
		PrefetchHits:        st.PrefetchHits,
		PrefetchAborted:     st.PrefetchAborted,
		PrefetchBytes:       st.PrefetchBytes,
		PrefetchWastedBytes: st.PrefetchWasted,
		HiddenMs:            ms(st.HiddenConfig),

		CompressedLoads: st.CompressedLoads,
		DMALoads:        st.DMALoads,
		OverlapMs:       ms(st.OverlapConfig),

		Shards:         r.Shards,
		ThroughputRPS:  r.RealThroughput(),
		Steals:         st.Steals,
		StolenRequests: st.StolenRequests,

		FaultsInjected: uint64(len(r.Fault.Events)),
		FaultsDetected: st.FaultsDetected,
		Requeues:       st.Requeues,
		Repairs:        st.Repairs,
		RepairMs:       ms(st.RepairConfig),
	}
	if st.Done > 0 {
		row.SimUsPerReq = busy / float64(st.Done)
	}
	if r.Rho > 0 {
		pct := r.Pct(0.50, 0.95, 0.99)
		row.OfferedLoad = r.Rho
		row.ArrivalProcess = arrivalProcess
		row.SimThroughputRPS = r.SimThroughput()
		row.P50Ms, row.P95Ms, row.P99Ms = pct[0].Milliseconds(), pct[1].Milliseconds(), pct[2].Milliseconds()
	}
	if s.fill != nil {
		s.fill(&row, r)
	}
	return row
}

// ms converts a simulated duration to wire milliseconds.
func ms(t sim.Time) float64 { return t.Microseconds() / 1e3 }
