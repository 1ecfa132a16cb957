package platform

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sim"
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

// Resident returns the name of the module currently configured in region 0
// — "" when blank, corrupted, or when the tracked state is not
// authoritative (e.g. after an aborted speculative stream left partial
// region content), so callers can treat it as a bitstream-cache key.
// Unlike Mgr.Current it is safe to call while another goroutine is inside
// ExecuteOn.
func (s *System) Resident() string { return s.ResidentOn(0) }

// ResidentOn returns the authoritative resident module of the given
// region, under the same contract as Resident.
func (s *System) ResidentOn(ri int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.regions[ri].mgr.ResidentState()
	if !ok {
		return ""
	}
	return r
}

// Supports reports whether the named module fits any of this system's
// dynamic regions (SHA-1, for instance, does not fit the 32-bit system).
func (s *System) Supports(module string) bool {
	for _, rs := range s.regions {
		if rs.mgr.Has(module) {
			return true
		}
	}
	return false
}

// SupportsOn reports whether the named module fits the given region — on
// an uneven floorplan a module can fit one region and not its sibling
// (e.g. a region with no enclosed BRAM columns cannot host patternmatch).
func (s *System) SupportsOn(ri int, module string) bool {
	return s.regions[ri].mgr.Has(module)
}

// Status is a consistent snapshot of the system's reconfiguration state,
// summed over every dynamic region. Resident is region 0's authoritative
// resident — the whole fabric of a single-region system.
type Status struct {
	Resident      string
	Now           sim.Time
	Loads         uint64
	LoadTime      sim.Time
	StreamedBytes uint64
	CompleteLoads uint64
	DiffLoads     uint64
	AbortedLoads  uint64
	// ScrubPasses counts readback scrubs across the regions; ScrubFaults
	// the passes that detected corruption; FaultsInjected the bit-flips
	// the fault campaign applied.
	ScrubPasses    uint64
	ScrubFaults    uint64
	FaultsInjected uint64
	Corrupted      bool
}

// RegionStatus is one region's slice of the system status.
type RegionStatus struct {
	Region         string
	Resident       string
	Loads          uint64
	LoadTime       sim.Time
	StreamedBytes  uint64
	CompleteLoads  uint64
	DiffLoads      uint64
	AbortedLoads   uint64
	ScrubPasses    uint64
	ScrubFaults    uint64
	FaultsInjected uint64
	Corrupted      bool
}

// Status reports the resident module and manager statistics under the
// system lock, so it is safe while another goroutine is inside ExecuteOn.
// Resident follows the same authoritative-only contract as Resident():
// after an aborted speculative stream the region content is partial, so
// no module is reported.
func (s *System) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st Status
	for i, rs := range s.regions {
		loads, loadTime, bytes := rs.mgr.Stats()
		complete, diff := rs.mgr.LoadKinds()
		st.Loads += loads
		st.LoadTime += loadTime
		st.StreamedBytes += bytes
		st.CompleteLoads += complete
		st.DiffLoads += diff
		st.AbortedLoads += rs.mgr.AbortedLoads()
		passes, faults := rs.mgr.ScrubStats()
		st.ScrubPasses += passes
		st.ScrubFaults += faults
		st.FaultsInjected += rs.mgr.FaultsInjected()
		st.Corrupted = st.Corrupted || rs.mgr.Corrupted()
		if i == 0 {
			if r, ok := rs.mgr.ResidentState(); ok {
				st.Resident = r
			}
		}
	}
	st.Now = s.K.Now()
	return st
}

// RegionStatuses reports every region's resident module and manager
// counters under the system lock.
func (s *System) RegionStatuses() []RegionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RegionStatus, len(s.regions))
	for i, rs := range s.regions {
		loads, loadTime, bytes := rs.mgr.Stats()
		complete, diff := rs.mgr.LoadKinds()
		resident, ok := rs.mgr.ResidentState()
		if !ok {
			resident = ""
		}
		passes, faults := rs.mgr.ScrubStats()
		out[i] = RegionStatus{
			Region:         rs.area.R.Name,
			Resident:       resident,
			Loads:          loads,
			LoadTime:       loadTime,
			StreamedBytes:  bytes,
			CompleteLoads:  complete,
			DiffLoads:      diff,
			AbortedLoads:   rs.mgr.AbortedLoads(),
			ScrubPasses:    passes,
			ScrubFaults:    faults,
			FaultsInjected: rs.mgr.FaultsInjected(),
			Corrupted:      rs.mgr.Corrupted(),
		}
	}
	return out
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

// loadWith plans and executes one reconfiguration of the slot's region.
// Must run under the system lock (or on a single-threaded system):
// planning and loading are one atomic step, so the plan's assumed
// from-state cannot go stale between the choice and the stream — the
// manager still re-verifies it. A non-nil stop makes the stream abortable
// (see LoadSpeculativeOn): an abort reports Aborted with the bytes actually
// pushed and returns core.ErrAborted.
func (s *System) loadWith(rs *regionSlot, name string, stop func() bool) (ConfigReport, error) {
	r := ConfigReport{Module: name, Region: rs.area.R.Name, At: s.K.Now()}
	if stop != nil && stop() {
		r.Aborted = true
		return r, core.ErrAborted
	}
	p, err := s.planFor(rs, name)
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

// LoadSpeculativeOn brings a module into the given region ahead of any
// request — the prefetch half of overlapping reconfiguration with
// computation. It plans like LoadModuleOn but issues the stream through
// the abortable path, polling stop at safe boundaries, so a real request
// that wants the region never waits for a full speculative stream: it
// triggers stop and takes the system lock as soon as the stream parks. On
// abort the report carries the partial byte count and Aborted=true, the
// region's resident state is demoted to non-authoritative, and
// core.ErrAborted is returned — the §2.2 hazard gate then forces the next
// load of THIS region onto a complete stream (sibling regions keep their
// authoritative state), so a stale speculative resident can never be
// executed against.
func (s *System) LoadSpeculativeOn(ri int, name string, stop func() bool) (ConfigReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadWith(s.regions[ri], name, stop)
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
	rs := s.regions[ri]
	s.active = ri
	cfg, err := s.loadWith(rs, module, nil)
	r := ExecReport{
		Module: module,
		Region: rs.area.R.Name,
		// A failed load is never a cache hit: the zero ConfigReport of a
		// planning error carries StreamNone without meaning it.
		CacheHit:      err == nil && cfg.Kind == plan.StreamNone,
		Kind:          cfg.Kind,
		BytesStreamed: cfg.Bytes,
		Config:        cfg.Time,
		At:            cfg.At,
	}
	if err != nil {
		s.active = 0
		return r, err
	}
	start := s.K.Now()
	err = fn()
	r.Work = s.K.Now() - start
	s.active = 0
	return r, err
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
	p, err := s.planFor(rs, module)
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
	s.active = t.ri
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
		s.active = 0
		return r, fmt.Errorf("platform: after dma load of %s region %s binds %q",
			t.module, rs.area.R.Name, rs.mgr.Current())
	}
	start := s.K.Now()
	err := fn()
	r.Work = s.K.Now() - start
	s.active = 0
	return r, err
}
