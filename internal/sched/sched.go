// Package sched multiplexes a pool of dynamically reconfigurable platforms
// across competing task requests — the scheduling layer the paper's
// time-sharing methodology implies once more than one task (and more than
// one board) contends for the dynamic area.
//
// The pool's dynamic regions collectively form a bitstream cache keyed by
// module name: every (member, region) pair is one scheduling slot, so a
// dual-region board holds two residents and a request whose module is
// already resident on an idle slot runs there without any ICAP traffic (a
// cache hit) — even while a sibling region of the same board computes.
// Otherwise a pluggable placement policy chooses the miss victim among the
// idle slots — "lru" evicts the least-recently-dispatched, "mincost" the
// slot whose resident module minimizes the planned (differential-aware)
// configuration cost of the transition, "gang" co-locates one round's
// misses on sibling regions of one member. Dispatch order is FIFO over
// schedulable requests; an optional batch window pulls up to Batch-1
// queued requests for the same module forward so they ride a warm
// configuration, bounding how far any request can be overtaken.
//
// With Options.Prefetch the scheduler also overlaps reconfiguration with
// computation: whenever a slot goes idle, an online next-module predictor
// (internal/predict) and the regions' planners choose the cheapest
// speculative (resident → predicted) transition, and the stream is issued
// as a cancellable background load — including into an idle region whose
// sibling is mid-execution, the intra-device overlap multi-region
// floorplans add. A real request always wins: dispatching a different
// module to a speculating slot triggers its abort token, the stream parks
// at the next safe boundary, and the §2.2 hazard gate (per region)
// guarantees the partial region content is never executed against — a
// wrong guess wastes speculative bytes, never correctness.
//
// With Options.Shards > 1 the pool's members are partitioned into
// independently locked shards, each with its own run queue, slot set and
// placement state; requests are routed round-robin among the shards that
// can host their module, a shard whose queue drains steals queued work
// from its siblings (see shard.stealLocked), and the hot-path identity
// counters (submission ID, completion sequence, in-flight count) are
// atomics, so no pool-wide lock exists anywhere on the dispatch path. One
// shard reproduces the pre-shard scheduler's dispatch order byte for byte
// — the dispatch-order goldens pin that equivalence.
//
// Each shard keeps one book: every fact the scheduler counts is one
// trace.Event, booked through shard.book, which folds it into the shard's
// Stats (Stats.fold) and forwards it to the tracer when one is set. A
// traced run's events therefore fold back to exactly its Stats.
package sched

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/pool"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/tasks"
	"repro/internal/trace"
)

// Options tunes the scheduler.
type Options struct {
	// Batch is the maximum number of same-module requests dispatched
	// consecutively to one slot ahead of strict FIFO order. 0 or 1
	// disables reordering entirely (pure FIFO).
	Batch int
	// Policy places cache-missing requests on idle slots. nil means LRU.
	// Policies must be stateless (all built-ins are): shards consult the
	// policy concurrently.
	Policy Policy
	// Prefetch enables speculative configuration of idle slots with the
	// predictor's next-module guesses.
	Prefetch bool
	// Predictor guides prefetching; it is trained online from the
	// arrival stream and shared by all shards (implementations serialize
	// internally). nil with Prefetch enabled selects the default markov
	// predictor.
	Predictor predict.Predictor
	// Scrub runs a readback scrub (region content hash against the
	// verified one) of the dispatched slot before each batch executes. A
	// detection quarantines the slot, requeues the batch at the head of
	// the queue, and launches a background repair; see ScrubAll for the
	// idle-slot scrub loop.
	Scrub bool
	// Shards partitions the pool's members into this many independently
	// locked scheduler shards (run queue + slot set + placement state),
	// with work stealing between them. 0 or 1 keeps the whole pool under
	// one shard — bitwise-identical to the pre-shard scheduler; the
	// dispatch-order goldens pin that equivalence. Clamped to the member
	// count (a member's sibling regions are never split across shards).
	Shards int
	// DMA issues miss streams through each region dock's DMA engine
	// instead of CPU stores: every assignment of one dispatch round to the
	// same member opens its port window before any of them settles, so
	// sibling regions' configurations overlap in simulated time — the
	// overlapped part is reported per request as ConfigHidden and summed
	// into Stats.OverlapConfig. With Scrub also set, each member's round
	// runs scrub → Begin → settle: the scrub reads every slot before any
	// stream starts, and only the batches it clears open a port window.
	DMA bool
	// Trace records the run's event stream: submit/dispatch/steal/
	// config/compute/complete spans plus prefetch, scrub, quarantine and
	// repair events, all stamped with simulated time. New threads it
	// through every member's platform layer too (plan decisions, hazard
	// verdicts, demotions, DMA windows). nil (the default) records
	// nothing: the scheduler still folds each event into Stats and then
	// drops it.
	Trace *trace.Tracer
}

// Result is the outcome of one scheduled request.
type Result struct {
	ID     uint64 // submission order, 1-based
	Seq    uint64 // completion order across the pool, 1-based
	Task   string
	Module string
	Member int
	Region int // region index within the member
	System string
	Report platform.ExecReport
	Err    error

	// Times on the member's clock: the request arrives at Arrival (its
	// SubmitAt stamp, else Report.At) and finishes at DoneAt = Report.At +
	// Latency; Sojourn = DoneAt - Arrival is queue wait plus service. A
	// request rejected at submit has Arrival = DoneAt = its stamp.
	Arrival sim.Time
	DoneAt  sim.Time
	Sojourn sim.Time
}

// Latency is the simulated time the request occupied its slot
// (reconfiguration plus work).
func (r Result) Latency() sim.Time { return r.Report.Latency() }

// SlotID names one scheduling slot: a member and a region index inside it.
type SlotID struct {
	Member int
	Region int
}

// Stats aggregates scheduler-wide outcomes. Every counter is a fold of the
// scheduler's event stream (see fold), except PrefetchPending.
type Stats struct {
	Requests uint64 // submitted
	Done     uint64 // completed (including errors)
	Hits     uint64
	Misses   uint64
	Config   sim.Time // total simulated reconfiguration time
	Work     sim.Time // total simulated work time
	Errors   uint64
	// Slots names each scheduling slot; BusyTime is the slot's simulated
	// busy time (config+work), indexed alike. Pool order (member, region)
	// regardless of how the slots are sharded.
	Slots    []SlotID
	BusyTime []sim.Time
	// BytesStreamed counts all configuration bytes through the pool's
	// configuration ports on the request path (wire bytes — a compressed
	// container counts its wire size, matching the members' own
	// StreamedBytes counters); DiffLoads, CompleteLoads and
	// CompressedLoads split the misses by the stream kind the planner
	// chose.
	BytesStreamed   uint64
	DiffLoads       uint64
	CompleteLoads   uint64
	CompressedLoads uint64

	// DMA accounting — zero unless Options.DMA is enabled. DMALoads counts
	// request-path streams issued through dock DMA engines; OverlapConfig
	// is the part of their port windows that overlapped sibling loads,
	// dispatch or work — configuration time that never showed up as
	// request latency (Config counts only the visible remainder).
	DMALoads      uint64
	OverlapConfig sim.Time

	// Sharded-dispatch accounting — zero with a single shard. Steals
	// counts successful cross-shard steal operations (a drained shard
	// pulling queued work from a sibling); StolenRequests the requests
	// moved. A stolen request completes on the thief shard and is booked
	// there — no counter is ever double-counted by a steal, so every
	// conservation law below holds shard by shard and in the aggregate.
	Steals         uint64
	StolenRequests uint64

	// Prefetch accounting — all zero unless Options.Prefetch is enabled.
	// Config above counts only visible (request-path) configuration time;
	// speculative streams live here.
	PrefetchIssued    uint64 // speculative loads launched
	PrefetchLoads     uint64 // speculative streams that reached an ICAP
	PrefetchCompleted uint64 // speculative streams that ran to completion
	PrefetchAborted   uint64 // speculative streams aborted or failed
	PrefetchHits      uint64 // requests served by a prefetched resident
	PrefetchBytes     uint64 // bytes streamed speculatively
	// Every speculative byte ends in exactly one of three places: consumed
	// by a prefetch hit (PrefetchConsumed), booked as waste when its guess
	// was aborted or overwritten unconsumed (PrefetchWasted), or still
	// sitting resident awaiting a request (PrefetchBytes minus the other
	// two). An abort books its partial bytes as waste exactly once — the
	// regression tests pin this against abort-then-retry on one region.
	PrefetchConsumed uint64
	PrefetchWasted   uint64
	// PrefetchPending is the byte total of completed speculative streams
	// still sitting resident unconsumed: slot state, not an event, so
	// Scheduler.Stats sums it from the slots. Conservation holds at every
	// quiesced point:
	//   PrefetchBytes == PrefetchConsumed + PrefetchWasted + PrefetchPending
	// (between a stream's completion and its accounting the left side
	// briefly leads). TestSpeculativeByteConservation pins the equality.
	PrefetchPending uint64
	// HiddenConfig is the speculative configuration time later consumed by
	// prefetch hits — time the pipeline moved off the request critical
	// path; PrefetchConfig is all speculative configuration time. A
	// request riding an in-flight stream credits the full stream time, so
	// HiddenConfig is an upper bound on the truly overlapped time: the
	// rider's wait for the stream remainder is queue wait, which only
	// SubmitAt requests measure (Result.Sojourn - Result.Latency()).
	HiddenConfig   sim.Time
	PrefetchConfig sim.Time

	// Fault/scrub accounting — all zero unless faults are injected and a
	// scrub (Options.Scrub or ScrubAll) looks. Every detection quarantines
	// its slot and every quarantine resolves in exactly one repair, so
	// FaultsDetected == Repairs at every quiesced point — the fault
	// counterpart of the speculative-byte conservation law. Requeues
	// counts requests bounced off a corrupted slot back to the queue head;
	// each is re-dispatched and completes (and is counted in Done) like
	// any other request.
	ScrubPasses    uint64 // readback scrub passes run by the scheduler
	FaultsDetected uint64 // scrubs that caught a corrupted slot
	Requeues       uint64 // requests requeued off quarantined slots
	Repairs        uint64 // quarantined slots returned to service
	RepairBytes    uint64 // bytes streamed by background repairs
	// RepairConfig is the simulated configuration time of background
	// repairs — off the request path, so not part of Config (a repair
	// overlaps request service elsewhere in the pool; a request hitting
	// the repaired slot later pays nothing, like a prefetch hit).
	RepairConfig sim.Time
}

// addScalars sums another stats block's scalar counters (everything except
// Slots/BusyTime, which Stats() stitches in pool order) into s.
func (s *Stats) addScalars(o Stats) {
	s.Requests += o.Requests
	s.Done += o.Done
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Config += o.Config
	s.Work += o.Work
	s.Errors += o.Errors
	s.BytesStreamed += o.BytesStreamed
	s.DiffLoads += o.DiffLoads
	s.CompleteLoads += o.CompleteLoads
	s.CompressedLoads += o.CompressedLoads
	s.DMALoads += o.DMALoads
	s.OverlapConfig += o.OverlapConfig
	s.Steals += o.Steals
	s.StolenRequests += o.StolenRequests
	s.PrefetchIssued += o.PrefetchIssued
	s.PrefetchLoads += o.PrefetchLoads
	s.PrefetchCompleted += o.PrefetchCompleted
	s.PrefetchAborted += o.PrefetchAborted
	s.PrefetchHits += o.PrefetchHits
	s.PrefetchBytes += o.PrefetchBytes
	s.PrefetchConsumed += o.PrefetchConsumed
	s.PrefetchWasted += o.PrefetchWasted
	s.PrefetchPending += o.PrefetchPending
	s.HiddenConfig += o.HiddenConfig
	s.PrefetchConfig += o.PrefetchConfig
	s.ScrubPasses += o.ScrubPasses
	s.FaultsDetected += o.FaultsDetected
	s.Requeues += o.Requeues
	s.Repairs += o.Repairs
	s.RepairBytes += o.RepairBytes
	s.RepairConfig += o.RepairConfig
}

// fold books one event into the counters; it is the only place a counter
// moves. si indexes the event's slot in Slots and BusyTime (-1 for a
// scheduler-level event). Kinds no counter reads, such as dispatch and the
// platform layer's plan, hazard, demote and dma-window, fold to nothing.
func (s *Stats) fold(si int, e trace.Event) {
	switch e.Kind {
	case trace.KindSubmit:
		s.Requests++
	case trace.KindSteal:
		s.Steals++
		s.StolenRequests += uint64(e.Arg)
	case trace.KindConfig:
		s.Config += e.Dur
		s.BusyTime[si] += e.Dur
	case trace.KindCompute:
		s.Work += e.Dur
		s.BusyTime[si] += e.Dur
	case trace.KindOverlap:
		s.OverlapConfig += e.Dur
	case trace.KindComplete:
		s.Done++
		if e.Err {
			s.Errors++
		}
		if e.Member < 0 {
			return // rejected at submit: never reached a slot
		}
		if e.Hit {
			s.Hits++
		} else {
			s.Misses++
		}
		s.BytesStreamed += uint64(e.Bytes)
		k := plan.StreamKind(e.Stream)
		switch k {
		case plan.StreamDifferential:
			s.DiffLoads++
		case plan.StreamComplete:
			s.CompleteLoads++
		case plan.StreamCompressed:
			s.CompressedLoads++
		}
		if e.DMA && k != plan.StreamNone {
			s.DMALoads++
		}
	case trace.KindPrefetchLaunch:
		s.PrefetchIssued++
	case trace.KindPrefetchConfig:
		s.PrefetchBytes += uint64(e.Bytes)
		s.PrefetchConfig += e.Dur
		if e.Bytes > 0 {
			s.PrefetchLoads++
		}
		if e.Err {
			s.PrefetchAborted++
			s.PrefetchWasted += uint64(e.Bytes)
		} else {
			s.PrefetchCompleted++
		}
	case trace.KindPrefetchHit:
		s.PrefetchHits++
		s.PrefetchConsumed += uint64(e.Bytes)
		s.HiddenConfig += sim.Time(e.Arg)
	case trace.KindPrefetchWaste:
		s.PrefetchWasted += uint64(e.Bytes)
	case trace.KindScrub:
		s.ScrubPasses++
	case trace.KindQuarantine:
		s.FaultsDetected++
	case trace.KindRequeue:
		s.Requeues += uint64(e.Arg)
	case trace.KindRepair:
		s.Repairs++
		s.RepairBytes += uint64(e.Bytes)
		s.RepairConfig += e.Dur
	}
}

// HitRate returns the bitstream-cache hit fraction of executed requests
// (submit-rejected requests never touch the cache and are excluded).
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// request is one queued task.
type request struct {
	id   uint64
	task tasks.Runner
	ch   chan Result
	// arrival stamps the request's simulated arrival on its member's
	// clock; openLoop marks requests submitted through SubmitAt, whose
	// member advances to the arrival before serving them.
	arrival  sim.Time
	openLoop bool
}

// abortToken cancels one speculative load; the loader polls it at safe
// stream boundaries.
type abortToken struct{ flag atomic.Bool }

func (a *abortToken) trigger()      { a.flag.Store(true) }
func (a *abortToken) aborted() bool { return a.flag.Load() }

// slotState is one scheduling slot: a (member, region) pair. Sibling
// slots of one member have independent residents and speculation state but
// share the member's serialized simulated timeline. A slot belongs to
// exactly one shard for the scheduler's lifetime; all mutable fields are
// guarded by that shard's mu.
type slotState struct {
	m  *pool.Member
	ri int // region index within the member
	si int // index in the shard's slots, Stats.Slots and Stats.BusyTime
	// busy marks a slot with a dispatched batch in flight.
	busy bool
	// resident caches the slot's authoritative resident module as of the
	// last scheduler-driven action (batch execution or speculative
	// completion; "" after an abort, an error, or at boot). The scheduler
	// owns the pool, so nothing else can move a region's resident state —
	// and the dispatcher must never touch the member's own lock while
	// holding the shard lock: a sibling region mid-execution holds
	// that lock for its whole simulated run, which would stall dispatch
	// to every other board of the shard.
	resident string
	// lastModule is the module of the most recent dispatch — the resident
	// module a busy slot converges to, read without touching its lock.
	lastModule string
	// lastUsed is the dispatch tick of the most recent assignment; the
	// idle slot with the smallest tick is the LRU eviction victim.
	lastUsed uint64

	// specBusy marks an in-flight speculative load of specModule;
	// specAbort is its cancellation token. A real dispatch of a different
	// module to THIS slot triggers the token and proceeds — a dispatch to
	// a sibling region leaves the stream running, and ExecuteOn serializes
	// behind it on the member's own lock.
	specBusy   bool
	specModule string
	specAbort  *abortToken
	// specHitPending marks a dispatch that is riding the in-flight
	// speculative stream (same module): when the stream completes it is
	// credited as a prefetch hit there and then, since the request's own
	// record may run before the speculative goroutine's.
	specHitPending bool
	// prefetched names the last completed, still unconsumed speculative
	// load, with the stream bytes/time it paid off the request path. The
	// first request hitting it converts prefetchedTime into HiddenConfig
	// and the bytes into PrefetchConsumed; a real load overwriting it
	// books prefetchedBytes as wasted.
	prefetched      string
	prefetchedBytes int
	prefetchedTime  sim.Time

	// quarantined takes the slot out of service after a scrub detected
	// corruption: never picked, never speculated into, until its
	// background repair (runRepair) completes and clears it.
	quarantined bool
	// scrubbing marks a slot mid readback scrub (ScrubAll runs the pass
	// outside the shard lock); treated like busy by pick, prefetch
	// and Drained.
	scrubbing bool
}

// residentView is the slot's resident module as the dispatcher sees it:
// the last dispatched module while busy (a busy slot converges to it —
// including when the dispatch just aborted a speculation, whose doomed
// guess must not be reported), else the speculative target while a stream
// is in flight (it either completes into exactly that state or the
// dispatch that invalidates it aborts it), else the cached resident.
// Never takes the member's lock — see slotState.resident.
func (ss *slotState) residentView() string {
	switch {
	case ss.busy:
		return ss.lastModule
	case ss.specBusy:
		return ss.specModule
	default:
		return ss.resident
	}
}

func (ss *slotState) supports(module string) bool {
	return ss.m.Sys.SupportsOn(ss.ri, module)
}

// slotRef addresses one slot globally: which shard holds it and at which
// shard-local index. Scheduler.Stats uses the refs to stitch the
// per-shard Slots/BusyTime slices back into pool order.
type slotRef struct {
	shard int
	idx   int
}

// Scheduler dispatches task requests onto a pool's (member, region) slots,
// partitioned into one or more independently locked shards.
type Scheduler struct {
	opts Options
	// planAware: the policy reads Candidate.Plan, so pickLocked must fill
	// it (the first fill per transition and board shape assembles the
	// differential — a one-time cost under the shard lock; later fills,
	// on any board of the shape, read the shape's memo).
	planAware bool

	shards    []*shard
	slotOrder []slotRef

	// Lock-free hot-path counters. nextID hands out submission IDs, done
	// the pool-wide completion sequence (Result.Seq), inflight the
	// accepted-but-undelivered count (Drained's fast path); rr rotates the
	// round-robin router. None of them ever takes a lock, so shards never
	// serialize on shared identity state.
	rr       atomic.Uint64
	nextID   atomic.Uint64
	done     atomic.Uint64
	inflight atomic.Int64
	// stopped (set by Wait, cleared by Submit) keeps a drained scheduler
	// from speculating into the void after the last result is delivered.
	stopped atomic.Bool

	wg sync.WaitGroup
	// specWG tracks speculative load goroutines; repairWG background
	// repair goroutines of quarantined slots.
	specWG   sync.WaitGroup
	repairWG sync.WaitGroup
}

// New returns a scheduler over the pool. The pool must not be driven by
// anyone else while the scheduler owns it.
func New(p *pool.Pool, opts Options) *Scheduler {
	if opts.Batch < 1 {
		opts.Batch = 1
	}
	if opts.Policy == nil {
		opts.Policy = lruPolicy{}
	}
	if opts.Prefetch && opts.Predictor == nil {
		opts.Predictor, _ = predict.New("")
	}
	s := &Scheduler{opts: opts}
	if pa, ok := opts.Policy.(interface{ NeedsPlan() bool }); ok {
		s.planAware = pa.NeedsPlan()
	}
	groups := p.Partition(opts.Shards)
	memberShard := make(map[int]int) // member ID -> shard index
	memberBase := make(map[int]int)  // member ID -> first shard-local slot
	s.shards = make([]*shard, len(groups))
	for i, g := range groups {
		sh := &shard{sc: s, id: i}
		for _, m := range g {
			memberShard[m.ID] = i
			memberBase[m.ID] = len(sh.slots)
			for ri := 0; ri < m.Sys.NumRegions(); ri++ {
				sh.slots = append(sh.slots, &slotState{m: m, ri: ri, si: len(sh.slots)})
				sh.stats.Slots = append(sh.stats.Slots, SlotID{Member: m.ID, Region: ri})
			}
		}
		sh.stats.BusyTime = make([]sim.Time, len(sh.slots))
		s.shards[i] = sh
	}
	if opts.Trace != nil {
		// Thread the tracer through every member's platform layer, so
		// plan/hazard/demote/DMA-window events land in the same stream as
		// the scheduler's own spans.
		for _, m := range p.Members() {
			m.Sys.SetTracer(opts.Trace, m.ID)
		}
	}
	// Global slot order = pool order (member ID, region) — exactly the
	// pre-shard flattening, so Stats' Slots/BusyTime layout is unchanged
	// under any shard count.
	for _, m := range p.Members() {
		for ri := 0; ri < m.Sys.NumRegions(); ri++ {
			s.slotOrder = append(s.slotOrder,
				slotRef{shard: memberShard[m.ID], idx: memberBase[m.ID] + ri})
		}
	}
	return s
}

// Shards reports how many shards the scheduler dispatches over.
func (s *Scheduler) Shards() int { return len(s.shards) }

// route picks the target shard for a module: round-robin among the shards
// with a slot that can host it, so independent submitters spread across
// the pool. Falls back to the rotation's first shard when nothing supports
// the module (submitLocked fails the request there).
func (s *Scheduler) route(module string) *shard {
	n := len(s.shards)
	if n == 1 {
		return s.shards[0]
	}
	start := int(s.rr.Add(1)-1) % n
	for i := 0; i < n; i++ {
		sh := s.shards[(start+i)%n]
		if sh.supportsModule(module) {
			return sh
		}
	}
	return s.shards[start]
}

// Submit queues a task request and returns a channel that delivers its
// Result exactly once. A request whose module no slot supports fails
// immediately.
func (s *Scheduler) Submit(t tasks.Runner) <-chan Result {
	return s.submit(t, 0, false)
}

// SubmitAt queues a task request stamped with its open-loop simulated
// arrival time on the members' clocks. The member serving it first
// advances its clock to the arrival, so Result.Sojourn is queue wait plus
// service. Arrival times should be non-decreasing per submitter, as a
// real request stream's are.
func (s *Scheduler) SubmitAt(t tasks.Runner, arrival sim.Time) <-chan Result {
	return s.submit(t, arrival, true)
}

func (s *Scheduler) submit(t tasks.Runner, arrival sim.Time, openLoop bool) <-chan Result {
	sh := s.route(t.Module())
	sh.mu.Lock()
	ch := sh.submitLocked(t, arrival, openLoop)
	sh.dispatchLocked()
	sh.mu.Unlock()
	return ch
}

// SubmitBatch queues a group of requests and dispatches them in ONE round:
// the placement of every request sees the whole group, so a round-aware
// policy ("gang") can co-locate two misses on sibling regions of one
// member, where DMA mode overlaps their configurations. Submitting the
// same requests one by one reaches the same slots only when wall-clock
// timing cooperates; the batch makes the pairing deterministic. Under
// sharding the whole batch lands on one shard (so the gang pairing
// survives); only requests that shard cannot host are routed away.
func (s *Scheduler) SubmitBatch(ts []tasks.Runner) []<-chan Result {
	out := make([]<-chan Result, len(ts))
	if len(ts) == 0 {
		return out
	}
	n := len(s.shards)
	primary := s.shards[int(s.rr.Add(1)-1)%n]
	var order []*shard
	byShard := make(map[*shard][]int, 1)
	for i, t := range ts {
		sh := primary
		if n > 1 && !sh.supportsModule(t.Module()) {
			sh = s.route(t.Module())
		}
		if _, ok := byShard[sh]; !ok {
			order = append(order, sh)
		}
		byShard[sh] = append(byShard[sh], i)
	}
	for _, sh := range order {
		sh.mu.Lock()
		for _, i := range byShard[sh] {
			out[i] = sh.submitLocked(ts[i], 0, false)
		}
		sh.dispatchLocked()
		sh.mu.Unlock()
	}
	return out
}

// SubmitAll queues a whole workload and returns the result channels in
// submission order.
func (s *Scheduler) SubmitAll(ts []tasks.Runner) []<-chan Result {
	out := make([]<-chan Result, len(ts))
	for i, t := range ts {
		out[i] = s.Submit(t)
	}
	return out
}

// SubmitWindowed drives a workload closed-loop: at most window requests
// are outstanding, and onResult sees each completed result in submission
// order before the next request is submitted (window < 1 is treated as
// fully sequential). Callers model think time — e.g. waiting for
// Drained() — inside onResult.
func (s *Scheduler) SubmitWindowed(ts []tasks.Runner, window int, onResult func(Result)) {
	if window < 1 {
		window = 1
	}
	var inflight []<-chan Result
	for _, t := range ts {
		if len(inflight) == window {
			onResult(<-inflight[0])
			inflight = inflight[1:]
		}
		inflight = append(inflight, s.Submit(t))
	}
	for _, ch := range inflight {
		onResult(<-ch)
	}
}

// Wait blocks until every submitted request has completed and all
// speculative activity has quiesced: in-flight speculative streams are
// aborted (nothing is coming that could consume them) and their goroutines
// joined, so Stats() is stable and the pool is untouched afterwards.
func (s *Scheduler) Wait() {
	s.wg.Wait()
	s.stopped.Store(true)
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, ss := range sh.slots {
			if ss.specBusy {
				ss.specAbort.trigger()
			}
		}
		sh.mu.Unlock()
	}
	s.specWG.Wait()
	s.repairWG.Wait()
}

// Drained reports whether the scheduler is fully settled: no accepted
// request undelivered, no slot executing, and no speculative stream in
// flight. Closed-loop drivers that need reproducible runs poll it between
// arrivals — a delivered Result precedes the slot's release and the
// tail dispatch that may issue new speculation, so observing counters
// alone can race with both. The in-flight fast path is atomic; the
// per-shard slot scan takes each shard's lock in turn.
func (s *Scheduler) Drained() bool {
	if s.inflight.Load() > 0 {
		return false
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		ok := len(sh.pending) == 0
		if ok {
			for _, ss := range sh.slots {
				if ss.busy || ss.specBusy || ss.quarantined || ss.scrubbing {
					ok = false
					break
				}
			}
		}
		sh.mu.Unlock()
		if !ok {
			return false
		}
	}
	return true
}

// Stats returns a copy of the aggregate counters: the per-shard counter
// blocks summed, PrefetchPending summed from the slots, and
// Slots/BusyTime stitched back into pool (member, region) order.
func (s *Scheduler) Stats() Stats {
	var agg Stats
	per := make([]Stats, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		st := sh.stats
		st.Slots = append([]SlotID(nil), sh.stats.Slots...)
		st.BusyTime = append([]sim.Time(nil), sh.stats.BusyTime...)
		for _, ss := range sh.slots {
			st.PrefetchPending += uint64(ss.prefetchedBytes)
		}
		sh.mu.Unlock()
		per[i] = st
		agg.addScalars(st)
	}
	for _, ref := range s.slotOrder {
		agg.Slots = append(agg.Slots, per[ref.shard].Slots[ref.idx])
		agg.BusyTime = append(agg.BusyTime, per[ref.shard].BusyTime[ref.idx])
	}
	return agg
}

// ScrubAll runs one readback scrub pass over every idle slot — the
// periodic scrub loop a deployment would drive from a timer. Busy,
// speculating and quarantined slots are skipped (their members' locks are
// not free to take, and a demoted region has nothing to scrub); each
// detection quarantines the slot and launches its background repair.
// Returns how many corrupted slots the pass caught.
func (s *Scheduler) ScrubAll() int {
	detected := 0
	for _, sh := range s.shards {
		detected += sh.scrubAll()
	}
	return detected
}

// supported reports whether any slot of any shard can host the module.
// Structural (lock-free), like shard.supportsModule.
func (s *Scheduler) supported(module string) bool {
	for _, sh := range s.shards {
		if sh.supportsModule(module) {
			return true
		}
	}
	return false
}

func errUnsupported(module string) error {
	return fmt.Errorf("sched: no slot supports module %q", module)
}
