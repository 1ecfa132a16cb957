package platform

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ConfigReport describes one reconfiguration of a dynamic region: which
// stream kind the planner chose (no-op, differential or complete), how many
// bytes went through the HWICAP and how long the configuration took in
// simulated time. Aborted marks a speculative stream that was stopped at a
// safe boundary; Bytes then counts only the words actually pushed. Region
// names the dynamic region the stream targeted.
type ConfigReport struct {
	Module  string
	Region  string
	Kind    plan.StreamKind
	Bytes   int
	Frames  int
	Time    sim.Time
	Aborted bool
	// At is the member's simulated time when the load began: the stream
	// occupied [At, At+Time] on the member's timeline. Trace spans are
	// anchored here, so a traced run renders the same window the kernel
	// accounted.
	At sim.Time
}

// ExecReport describes one task execution on a system: how the requested
// module got into its dynamic region (StreamNone is a bitstream cache hit —
// no ICAP traffic) and the simulated time split between reconfiguration and
// useful work.
type ExecReport struct {
	Module string
	// Region names the dynamic region the task executed on.
	Region string
	// CacheHit reports that the module was already resident (Kind ==
	// plan.StreamNone).
	CacheHit bool
	// Kind is the configuration stream the load path issued.
	Kind plan.StreamKind
	// BytesStreamed counts the configuration bytes through the HWICAP.
	BytesStreamed int
	// Config is the configuration time the requester actually waited for
	// (the visible part of a DMA port window, or the whole CPU-path load).
	Config sim.Time
	// ConfigHidden is the part of a DMA load's port window that overlapped
	// dispatch, work or a sibling region's load — configuration time that
	// never showed up as request latency. Zero for CPU-path loads.
	ConfigHidden sim.Time
	// DMA marks a load issued through the region dock's DMA engine.
	DMA  bool
	Work sim.Time
	// At is the member's simulated time when the request reached the
	// region: configuration occupied [At, At+Config] and work
	// [At+Config, At+Config+Work] on the member's timeline (for a DMA
	// load the hidden window part precedes At). Trace spans anchor here.
	At sim.Time
}

// Latency is the simulated time the request occupied the system.
func (r ExecReport) Latency() sim.Time { return r.Config + r.Work }

// SupportsOn reports whether the named module fits the given region — on
// an uneven floorplan a module can fit one region and not its sibling
// (e.g. a region with no enclosed BRAM columns cannot host patternmatch).
func (s *System) SupportsOn(ri int, module string) bool {
	return s.regions[ri].mgr.Has(module)
}

// Status is one consistent snapshot of a board, taken under the system
// lock: its simulated time, whether a reconfiguration damaged the static
// design, and every region's resident module and counters.
type Status struct {
	Now       sim.Time
	Corrupted bool
	Regions   []RegionStatus
}

// RegionStatus is one region's part of a board's status. Resident is the
// name of the module configured in the region — "" when blank, corrupted,
// or when the tracked state is not authoritative (e.g. after an aborted
// speculative stream left partial region content), so callers can treat
// it as a bitstream-cache key.
type RegionStatus struct {
	Region   string
	Resident string
	core.Counters
}

// Status snapshots the board under the system lock, so it is safe while
// another goroutine is inside ExecuteOn.
func (s *System) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{Now: s.K.Now(), Regions: make([]RegionStatus, len(s.regions))}
	for i, rs := range s.regions {
		st.Regions[i] = RegionStatus{Region: rs.area.R.Name, Resident: rs.resident(),
			Counters: rs.mgr.Counters()}
		st.Corrupted = st.Corrupted || rs.mgr.Corrupted()
	}
	return st
}

// SetPlanning toggles the differential-stream planner for every region of
// this system. With planning off, every cache miss streams the complete
// configuration — the pre-planner behaviour, kept as the comparison
// baseline.
func (s *System) SetPlanning(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rs := range s.regions {
		rs.planning = on
	}
}

// SetCompression toggles the compressed stream kind for every region's
// planner. Off (the default) keeps plans byte-identical to the three-kind
// planner; on lets the planner pick a compressed container whenever its
// wire size undercuts every plain candidate.
func (s *System) SetCompression(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rs := range s.regions {
		rs.planner.SetCompression(on)
	}
}

// PlanForOn returns the stream the given region would issue right now to
// make the module resident, without loading anything. Safe to call while
// another goroutine is inside ExecuteOn; cost-aware schedulers use it to
// compare idle (member, region) pairs.
func (s *System) PlanForOn(ri int, module string) (plan.Plan, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.planFor(s.regions[ri], module)
}

// planFor chooses the stream under the system lock. With planning off the
// authoritative flag is narrowed so only the no-op (already resident) and
// complete streams remain — the state-independent baseline.
func (s *System) planFor(rs *regionSlot, module string) (plan.Plan, error) {
	resident, authoritative := rs.mgr.ResidentState()
	if !rs.planning {
		authoritative = authoritative && resident == module
	}
	return rs.planner.Plan(resident, authoritative, module)
}

// planLoad plans the stream the load path is about to execute on region
// ri and, on a traced board, books it as a plan event. PlanForOn and
// RestoreEstimateOn only price streams, so they book nothing. Runs under
// the system lock.
func (s *System) planLoad(ri int, module string) (plan.Plan, error) {
	p, err := s.planFor(s.regions[ri], module)
	if err == nil && s.tracer != nil {
		s.tracer.Emit(trace.Event{Ts: s.K.Now(), Kind: trace.KindPlan,
			Member: s.traceMember, Region: int32(ri),
			Name: p.Module + " " + p.Kind.String(), Bytes: int64(p.Bytes)})
	}
	return p, err
}

// loadWith plans and executes one reconfiguration of region ri.
// Must run under the system lock (or on a single-threaded system):
// planning and loading are one atomic step, so the plan's assumed
// from-state cannot go stale between the choice and the stream — the
// manager still re-verifies it. A non-nil stop makes the stream abortable
// (see LoadModuleOn): an abort reports Aborted with the bytes actually
// pushed and returns core.ErrAborted.
func (s *System) loadWith(ri int, name string, stop func() bool) (ConfigReport, error) {
	rs := s.regions[ri]
	r := ConfigReport{Module: name, Region: rs.area.R.Name, At: s.K.Now()}
	if stop != nil && stop() {
		r.Aborted = true
		return r, core.ErrAborted
	}
	p, err := s.planLoad(ri, name)
	if err != nil {
		return r, err
	}
	r.Kind, r.Frames = p.Kind, p.Frames
	r.Time, r.Bytes, err = rs.mgr.LoadPlannedAbortable(p, stop)
	if err != nil {
		r.Aborted = errors.Is(err, core.ErrAborted)
		return r, err
	}
	if rs.mgr.Current() != name {
		return r, fmt.Errorf("platform: after loading %s region %s binds %q",
			name, rs.area.R.Name, rs.mgr.Current())
	}
	return r, nil
}

// RestoreEstimateOn returns the planner's state-independent estimate, in
// wire bytes, of re-hosting the module on the given region later: the
// (blank → module) differential, falling back to the complete stream when
// no differential exists, and — when compression is enabled — the
// compressed container whenever it would stream fewer bytes (the same
// candidate set Plan weighs). A prefetcher weighs a speculative eviction
// by what bringing each side back would cost — a wide, rarely-requested
// module (sha1) is worth protecting over a narrow frequent one precisely
// because every transition involving it streams its full width, and with
// compression on that width is the compressed wire size, not the decoded
// frame count.
func (s *System) RestoreEstimateOn(ri int, module string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.regions[ri].planner.RestoreBytes(module)
}

// LoadModuleOn reconfigures the given region with the named module,
// letting the planner choose the cheapest safe stream (a no-op when
// resident, a differential transition when the tracked state is
// authoritative, the complete stream otherwise), and reports what was
// streamed. It takes the system lock, so Status and PlanForOn stay safe
// concurrently.
//
// A nil stop is a plain load. A non-nil stop makes the load speculative —
// the prefetch half of overlapping reconfiguration with computation: stop
// is polled at safe stream boundaries, so a real request that wants the
// region never waits for a full speculative stream; it trips stop and
// takes the system lock as soon as the stream parks. On abort the report
// carries the partial byte count and Aborted=true, the region's resident
// state is demoted to non-authoritative, and core.ErrAborted is returned —
// the §2.2 hazard gate then forces the next load of THIS region onto a
// complete stream (sibling regions keep their authoritative state), so a
// stale speculative resident can never be executed against.
func (s *System) LoadModuleOn(ri int, name string, stop func() bool) (ConfigReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadWith(ri, name, stop)
}

// ExecuteOn reconfigures the given region with the named module (planner
// chooses the cheapest safe stream; no ICAP traffic when it is already
// resident) and then runs fn, which must drive this system only. The
// region becomes the active one for the duration: DockBase/DockData/
// DockIRQ/Core inside fn address its dock. All simulated activity is
// serialized under the system lock, so a pool of systems can be executed
// from concurrent goroutines as long as each call names the system it
// drives — two regions of one system interleave rather than overlap.
func (s *System) ExecuteOn(ri int, module string, fn func() error) (ExecReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cfg, err := s.loadWith(ri, module, nil)
	r := ExecReport{
		Module: module,
		Region: cfg.Region,
		// A failed load is never a cache hit: the zero ConfigReport of a
		// planning error carries StreamNone without meaning it.
		CacheHit:      err == nil && cfg.Kind == plan.StreamNone,
		Kind:          cfg.Kind,
		BytesStreamed: cfg.Bytes,
		Config:        cfg.Time,
		At:            cfg.At,
	}
	if err != nil {
		return r, err
	}
	r.Work, err = s.work(ri, fn)
	return r, err
}

// work is the work phase of ExecuteOn and FinishExecuteOn: it runs fn with
// region ri active and returns the simulated time fn took. Runs under the
// system lock.
func (s *System) work(ri int, fn func() error) (sim.Time, error) {
	s.active = ri
	start := s.K.Now()
	err := fn()
	s.active = 0
	return s.K.Now() - start, err
}

// LoadTicket is one in-flight DMA-path configuration of a region: the
// stream content is already applied, the engine's port window is standing,
// and FinishExecuteOn settles the window against the member's timeline when
// the task actually needs the region. Sibling regions' tickets on one
// member overlap in simulated time.
type LoadTicket struct {
	ri      int
	module  string
	rs      *regionSlot
	pending *core.PendingLoad
	plan    plan.Plan
}

// Plan returns the stream the load path issued for this ticket.
func (t *LoadTicket) Plan() plan.Plan { return t.plan }

// BeginExecuteOn plans and starts the named module's configuration of the
// given region through its dock DMA engine. The plan and the engine Begin
// are one atomic step under the system lock; the returned ticket must be
// settled with FinishExecuteOn on the same system. A planning or
// configuration error is returned immediately, with the same demotion
// semantics as the CPU path.
func (s *System) BeginExecuteOn(ri int, module string) (*LoadTicket, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := s.regions[ri]
	p, err := s.planLoad(ri, module)
	if err != nil {
		return nil, err
	}
	pl, err := rs.mgr.BeginPlanned(p, rs.dma)
	if err != nil {
		return nil, err
	}
	return &LoadTicket{ri: ri, module: module, rs: rs, pending: pl, plan: p}, nil
}

// FinishExecuteOn settles a ticket's port window — the visible remainder is
// what this request waited for, the overlapped part is reported as
// ConfigHidden — and then runs fn on the configured region, exactly like
// ExecuteOn's work phase.
func (s *System) FinishExecuteOn(t *LoadTicket, fn func() error) (ExecReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := t.rs
	at := s.K.Now()
	visible, hidden := rs.mgr.FinishLoad(t.pending)
	r := ExecReport{
		Module:        t.module,
		Region:        rs.area.R.Name,
		CacheHit:      t.plan.Kind == plan.StreamNone,
		Kind:          t.plan.Kind,
		BytesStreamed: t.pending.Bytes(),
		Config:        visible,
		ConfigHidden:  hidden,
		DMA:           t.plan.Kind != plan.StreamNone,
		At:            at,
	}
	if rs.mgr.Current() != t.module {
		return r, fmt.Errorf("platform: after dma load of %s region %s binds %q",
			t.module, rs.area.R.Name, rs.mgr.Current())
	}
	var err error
	r.Work, err = s.work(t.ri, fn)
	return r, err
}
