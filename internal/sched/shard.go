package sched

import (
	"sync"

	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/tasks"
	"repro/internal/trace"
)

// shard is one independently locked slice of the scheduler: a subset of the
// pool's members (never splitting a member — sibling regions share one
// serialized timeline, and the member-quiet and DMA-gang invariants assume
// one owner), with its own run queue, dispatch tick, placement state and
// statistics. With Options.Shards <= 1 the whole pool is one shard and
// every code path below is exactly the pre-shard scheduler's — the
// dispatch-order goldens pin that equivalence byte for byte.
//
// Locking rules: a shard's mu guards its own fields only. The one place two
// shard locks are ever held together is stealLocked, and there the victim
// is acquired with TryLock while the thief's lock is held — the thief never
// blocks on a victim, so no lock-order cycle can form. Cross-shard
// hot-path counters (submission IDs, completion sequence, in-flight count)
// live as atomics on the Scheduler.
//
// Every counter in stats moves through book, under mu.
type shard struct {
	sc *Scheduler
	id int

	mu      sync.Mutex
	pending []*request
	slots   []*slotState
	tick    uint64
	// stats holds the shard-local slice of the aggregate counters; Slots
	// and BusyTime are indexed by shard-local slot index and stitched back
	// into pool order by Scheduler.Stats.
	stats Stats
	// stealTick rotates the victim scan start so repeated steals spread
	// over the other shards instead of always draining the next neighbour.
	stealTick uint64
}

// supportsModule reports whether any of the shard's slots can host the
// module. Structural only (fabric width and floorplan, via the lock-free
// SupportsOn), so it is safe to call without the shard lock — the router
// uses it to pick a target shard.
func (sh *shard) supportsModule(module string) bool {
	for _, ss := range sh.slots {
		if ss.supports(module) {
			return true
		}
	}
	return false
}

// memberQuiet reports whether no slot of the member is executing or
// streaming: only then is the member's lock free to take briefly for plan
// sizing and restore estimates. Calls into a non-quiet member would block
// the shard lock behind the sibling's entire simulated run. The member's
// slots all live on this shard, so the shard-local scan is authoritative.
func (sh *shard) memberQuiet(m *pool.Member) bool {
	for _, ss := range sh.slots {
		if ss.m == m && (ss.busy || ss.specBusy || ss.quarantined || ss.scrubbing) {
			return false
		}
	}
	return true
}

// submitLocked enqueues one request without dispatching. Called with sh.mu
// held; unsupported modules fail immediately.
func (sh *shard) submitLocked(t tasks.Runner, arrival sim.Time, openLoop bool) <-chan Result {
	sc := sh.sc
	ch := make(chan Result, 1)
	sc.stopped.Store(false)
	req := &request{id: sc.nextID.Add(1), task: t, ch: ch, arrival: arrival, openLoop: openLoop}
	// Scheduler-level instant (member/region -1): closed-loop submissions
	// carry Ts 0, open-loop ones their arrival stamp.
	sh.book(-1, trace.Event{Ts: arrival, Kind: trace.KindSubmit,
		Member: -1, Region: -1, ID: req.id, Name: t.Module()})
	if sc.opts.Predictor != nil {
		// Train on the arrival stream — including requests that fail below:
		// the workload asked for the module either way.
		sc.opts.Predictor.Observe(t.Module())
	}
	if !sc.supported(t.Module()) {
		sc.done.Add(1)
		sh.book(-1, trace.Event{Ts: arrival, Kind: trace.KindComplete, Err: true,
			Member: -1, Region: -1, ID: req.id, Name: t.Module()})
		ch <- Result{ID: req.id, Task: t.Name(), Module: t.Module(),
			Member: -1, Region: -1, Err: errUnsupported(t.Module()),
			Arrival: arrival, DoneAt: arrival}
		return ch
	}
	sc.wg.Add(1)
	sc.inflight.Add(1)
	sh.pending = append(sh.pending, req)
	return ch
}

// dispatchLocked assigns as many pending requests as the idle slots
// allow. Called with sh.mu held.
//
// Dispatch: scan pending in FIFO order; the first request with an eligible
// idle slot is dispatched (later requests may only overtake it inside
// the same-module batch window below, or when no idle slot supports its
// module — e.g. a sha1 request waiting for a 64-bit slot while 32-bit
// slots sit idle). Slot choice is delegated to the placement policy;
// every built-in policy sends a request to a slot with the module
// already resident when one is idle (cache hit) — including an idle
// region of a board whose sibling region is busy, the conflict a
// single-region pool must pay a miss for.
//
// When the scan finds nothing dispatchable and an idle slot remains, the
// shard tries to steal queued work from a sibling shard — once per
// dispatch round, so a failed steal cannot spin.
func (sh *shard) dispatchLocked() {
	sc := sh.sc
	var round []assignment
	assigned := make(map[int]bool)
	stole := false
	for {
		ri, si := sh.pickLocked(assigned)
		if ri < 0 {
			if !stole && len(sc.shards) > 1 && sh.idleSlotLocked() && sh.stealLocked() {
				stole = true
				continue
			}
			break
		}
		head := sh.pending[ri]
		batch := []*request{head}
		sh.pending = append(sh.pending[:ri], sh.pending[ri+1:]...)
		// Pull queued same-module requests into the batch window.
		for i := 0; i < len(sh.pending) && len(batch) < sc.opts.Batch; {
			if sh.pending[i].task.Module() == head.task.Module() {
				batch = append(batch, sh.pending[i])
				sh.pending = append(sh.pending[:i], sh.pending[i+1:]...)
				continue
			}
			i++
		}
		ss := sh.slots[si]
		if ss.specBusy {
			if ss.specModule != head.task.Module() {
				// Preempt: the speculative stream parks at its next safe
				// boundary; ExecuteOn then serializes behind it on the
				// member's lock. Sibling regions' streams are left alone.
				ss.specAbort.trigger()
			} else {
				// The dispatch rides the in-flight stream — the overlap
				// paying off; the speculative goroutine credits the hit.
				ss.specHitPending = true
			}
		}
		ss.busy = true
		ss.lastModule = head.task.Module()
		sh.tick++
		ss.lastUsed = sh.tick
		assigned[ss.m.ID] = true
		// Placement instant on the chosen slot's track, at the head's
		// arrival; Arg carries the batch size riding this dispatch.
		sh.book(si, trace.Event{Ts: head.arrival, Kind: trace.KindDispatch,
			Member: int32(ss.m.ID), Region: int32(ss.ri),
			ID: head.id, Name: head.task.Module(), Arg: int64(len(batch))})
		round = append(round, assignment{ss: ss, batch: batch})
	}
	if len(round) > 0 {
		// One goroutine per member: a member's assignments of this round
		// run in assignment order on its serialized timeline (so a
		// multi-assignment round is deterministic), while different
		// members' groups proceed independently (see runGroup).
		var order []*pool.Member
		byMember := make(map[*pool.Member][]assignment)
		for _, a := range round {
			if _, ok := byMember[a.ss.m]; !ok {
				order = append(order, a.ss.m)
			}
			byMember[a.ss.m] = append(byMember[a.ss.m], a)
		}
		for _, m := range order {
			go sh.runGroup(byMember[m])
		}
	}
	sh.prefetchLocked()
}

// idleSlotLocked reports whether the shard has a slot a stolen request
// could be dispatched to. Called with sh.mu held.
func (sh *shard) idleSlotLocked() bool {
	for _, ss := range sh.slots {
		if !ss.busy && !ss.quarantined && !ss.scrubbing {
			return true
		}
	}
	return false
}

// stealLocked pulls queued work from a sibling shard into this one.
// Called with sh.mu held; the victim is acquired with TryLock only, so the
// thief never blocks while holding its own lock (no deadlock by
// construction — a victim busy with its own dispatch is simply skipped).
// Stolen requests are the victim's oldest queue entries this shard can
// host, capped at half the victim's queue (work stealing balances load, it
// must not just relocate the backlog); their relative order is preserved
// on both sides, so FIFO-per-tenant order within each shard survives the
// move. Returns whether anything was stolen.
func (sh *shard) stealLocked() bool {
	shards := sh.sc.shards
	n := len(shards)
	for off := 1; off < n; off++ {
		v := shards[(sh.id+int(sh.stealTick)+off)%n]
		if v == sh || !v.mu.TryLock() {
			continue
		}
		limit := (len(v.pending) + 1) / 2
		var take []*request
		kept := v.pending[:0]
		for _, r := range v.pending {
			if len(take) < limit && sh.supportsModule(r.task.Module()) {
				take = append(take, r)
			} else {
				kept = append(kept, r)
			}
		}
		v.pending = kept
		v.mu.Unlock()
		if len(take) > 0 {
			sh.stealTick++
			sh.pending = append(sh.pending, take...)
			sh.book(-1, trace.Event{Ts: take[0].arrival, Kind: trace.KindSteal,
				Member: -1, Region: -1, ID: take[0].id,
				Name: take[0].task.Module(), Arg: int64(len(take))})
			return true
		}
	}
	return false
}

// assignment is one dispatched (slot, batch) pair of a round.
type assignment struct {
	ss    *slotState
	batch []*request
}

// pickLocked returns the indices of the first schedulable pending request
// and its chosen slot, or (-1, -1). assigned holds the member IDs already
// given an assignment in the current dispatch round (Candidate.GroupMate).
func (sh *shard) pickLocked(assigned map[int]bool) (int, int) {
	sc := sh.sc
	for ri, req := range sh.pending {
		mod := req.task.Module()
		var cands []Candidate
		hit := -1
		for si, ss := range sh.slots {
			if ss.busy || ss.quarantined || ss.scrubbing || !ss.supports(mod) {
				continue
			}
			// For a speculating slot the view is the in-flight target: a
			// matching request dispatched there rides the stream to a hit,
			// a different one aborts it (see dispatchLocked).
			c := Candidate{Index: si, Member: ss.m.ID, Region: ss.ri,
				Resident: ss.residentView(), LastUsed: ss.lastUsed, Speculating: ss.specBusy,
				GroupMate: assigned[ss.m.ID]}
			if c.Resident == mod {
				hit = si
				break
			}
			cands = append(cands, c)
		}
		// Cache hit: dispatch there without consulting the policy (every
		// built-in policy would pick it anyway), skipping the per-slot
		// plan sizing below.
		if hit >= 0 {
			return ri, hit
		}
		for i := range cands {
			// A speculating slot's plan cannot be sized without waiting
			// out its stream, and a slot whose sibling region is executing
			// or streaming cannot be sized without waiting out the member
			// lock; leaving PlanOK false costs them as worst case, so
			// policies prefer quiet slots and abort speculation only as a
			// last resort.
			if sc.planAware && !cands[i].Speculating {
				ss := sh.slots[cands[i].Index]
				if sh.memberQuiet(ss.m) {
					if p, err := ss.m.Sys.PlanForOn(ss.ri, mod); err == nil {
						cands[i].Plan, cands[i].PlanOK = p, true
					}
				}
			}
		}
		if len(cands) > 0 {
			return ri, cands[sc.opts.Policy.Pick(mod, cands)].Index
		}
	}
	return -1, -1
}

// prefetchLocked speculatively configures idle slots with the predictor's
// next-module guesses. Called with sh.mu held at the end of every dispatch
// round. For each ranked module not already resident (or in flight)
// anywhere in the shard, the idle slot whose planner offers the cheapest
// (resident → predicted) transition hosts the speculative load; at least
// one slot is always left unspeculated so a miss for an unpredicted
// module finds a quiet home. A busy slot is never a target, but an idle
// region whose sibling is computing is — the stream interleaves with the
// sibling's work on the member's serialized timeline, and the next
// request for the guess hits warm fabric on an already-loaded board.
// Slots carrying an unconsumed prefetch are skipped — replacing their
// guess before anyone used it would only convert speculative bytes into
// waste. Residency and the speculation budget are shard-local: sibling
// shards may host their own copy of a hot module, which is by design —
// each shard serves its own request stream.
func (sh *shard) prefetchLocked() {
	sc := sh.sc
	if !sc.opts.Prefetch || sc.stopped.Load() {
		return
	}
	speculating := 0
	var idle []*slotState
	for _, ss := range sh.slots {
		if ss.specBusy {
			speculating++
			continue
		}
		// Only slots of quiet members are speculation targets this round:
		// sizing a stream for a member whose sibling region is executing
		// would block the shard lock behind that run. The member's
		// release re-enters dispatchLocked, so deferred slots are
		// revisited the moment the board frees up.
		if !ss.busy && ss.prefetched == "" && sh.memberQuiet(ss.m) {
			idle = append(idle, ss)
		}
	}
	// At most half the shard's slots speculate at once: a miss for an
	// unpredicted module must still find quiet slots to choose among, or
	// placement degenerates to "the one slot not speculating" and the
	// per-miss streams grow past what prefetch hits save.
	limit := len(sh.slots) / 2
	if limit < 1 {
		limit = 1
	}
	if len(idle) == 0 || speculating >= limit {
		return
	}
	// Modules already resident (or arriving) anywhere in the shard are not
	// worth a second copy.
	resident := make(map[string]bool, len(sh.slots))
	for _, ss := range sh.slots {
		resident[ss.residentView()] = true
	}
	candidates := sc.opts.Predictor.Rank(2 * len(sh.slots) * len(sh.slots))
	// The eviction loss is constant per slot within the round; computing
	// it once avoids per-candidate RestoreEstimate round trips through
	// the members' locks (idle slots belong to quiet members, so those
	// trips are brief).
	loss := make(map[*slotState]float64, len(idle))
	for _, ss := range idle {
		if r := ss.resident; r != "" {
			loss[ss] = sc.opts.Predictor.Prob(r) * float64(restoreBytes(ss, r))
		}
	}
	for speculating < limit && len(idle) > 0 {
		// Choose the (idle slot, predicted module) pair with the highest
		// expected profit in stream bytes:
		//
		//   Prob(predicted) * restore(predicted) - Prob(resident) * restore(resident)
		//
		// where restore(x) is the planner's state-independent estimate of
		// re-hosting x later. The first term is what a predicted hit saves;
		// the second what evicting the resident costs when it is requested
		// again. The gate is what keeps speculation from strip-mining
		// affinity: a wide, occasionally-requested resident (sha1) beats a
		// narrow frequent guess because every transition touching it
		// streams its full width, while a blank or cold resident loses to
		// any warm prediction. Only positive-profit speculation is issued.
		bestIdle, bestMod, bestProfit, bestPlan := -1, "", 0.0, 0
		for _, mod := range candidates {
			if mod == "" || resident[mod] {
				continue
			}
			prob := sc.opts.Predictor.Prob(mod)
			if prob <= 0 {
				continue
			}
			for i, ss := range idle {
				if !ss.supports(mod) {
					continue
				}
				// Sized per slot: restore estimates differ between the
				// 32- and 64-bit fabrics (and between uneven regions).
				save := prob * float64(restoreBytes(ss, mod))
				profit := save - loss[ss]
				if profit <= 0 || profit < bestProfit {
					continue
				}
				// Only potential winners are stream-sized: PlanForOn breaks
				// profit ties toward the cheaper speculative transition,
				// and skipping the clear losers keeps the member-lock
				// round trips under the shard lock proportional to
				// improvements, not candidates.
				pb := int(^uint(0) >> 1)
				if p, err := ss.m.Sys.PlanForOn(ss.ri, mod); err == nil {
					pb = p.Bytes
				}
				if profit > bestProfit || pb < bestPlan {
					bestIdle, bestMod, bestProfit, bestPlan = i, mod, profit, pb
				}
			}
		}
		if bestIdle < 0 {
			return
		}
		ss := idle[bestIdle]
		// The launched stream holds the member's lock until it lands, so
		// the member is no longer quiet: drop every sibling slot from the
		// idle list too, or the next iteration's plan sizing would block
		// the shard lock behind this stream.
		kept := idle[:0]
		for _, other := range idle {
			if other.m != ss.m {
				kept = append(kept, other)
			}
		}
		idle = kept
		resident[bestMod] = true
		speculating++
		ss.specBusy, ss.specModule = true, bestMod
		ss.specAbort = &abortToken{}
		// Stamped with the quiet target member's clock, read under its lock.
		sh.book(ss.si, trace.Event{Ts: ss.m.Sys.Status().Now, Kind: trace.KindPrefetchLaunch,
			Member: int32(ss.m.ID), Region: int32(ss.ri), Name: bestMod})
		sc.specWG.Add(1)
		go sh.runSpeculative(ss, bestMod, ss.specAbort)
	}
}

// restoreBytes is a slot's state-independent stream-size estimate for
// hosting the module, with an unknown module costed as free (never worth
// protecting or prefetching).
func restoreBytes(ss *slotState, module string) int {
	b, err := ss.m.Sys.RestoreEstimateOn(ss.ri, module)
	if err != nil {
		return 0
	}
	return b
}

// runSpeculative drives one speculative load to completion or abort and
// books its outcome in one prefetch-config event. Every speculative byte
// is booked exactly once: either as waste (an aborted stream, or a
// completed one that outran its abort) or as consumed (on the prefetch hit
// that uses it) or it stays pending in the slot's prefetched fields until
// one of the two.
func (sh *shard) runSpeculative(ss *slotState, mod string, tok *abortToken) {
	defer sh.sc.specWG.Done()
	rep, err := ss.m.Sys.LoadModuleOn(ss.ri, mod, tok.aborted)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ss.specBusy, ss.specModule, ss.specAbort = false, "", nil
	member, region := int32(ss.m.ID), int32(ss.ri)
	// The stream's port span (an instant when nothing streamed); Err marks
	// an abort by a real dispatch or (defensively) a failed plan, whose
	// bytes are waste by definition.
	sh.book(ss.si, trace.Event{Ts: rep.At, Dur: rep.Time, Kind: trace.KindPrefetchConfig,
		Err: err != nil, Member: member, Region: region, Name: mod, Bytes: int64(rep.Bytes)})
	hitPending := ss.specHitPending
	ss.specHitPending = false
	// Refresh the cached resident — but only when the slot was neither
	// preempted nor claimed: a triggered token means a real dispatch (or
	// Wait) owns the slot's fate, and its record() may already have run,
	// so writing here could clobber the authoritative value with stale
	// state (the same ordering hazard the prefetched fields guard
	// against). A skipped write can leave the cache conservatively stale
	// after a Wait-time abort; the manager's live hazard gate still plans
	// every stream correctly.
	if !tok.aborted() && !ss.busy {
		if err == nil {
			ss.resident = mod
		} else {
			ss.resident = ""
		}
	}
	switch {
	case err != nil || rep.Kind == plan.StreamNone:
		// Booked in full above. A stream that found the module already
		// resident (a racing real load beat it) streamed nothing, and any
		// rider paid its own configuration.
	case hitPending:
		// A request is riding this stream to a hit right now.
		sh.book(ss.si, trace.Event{Ts: rep.At + rep.Time, Kind: trace.KindPrefetchHit,
			Member: member, Region: region, Name: mod, Arg: int64(rep.Time), Bytes: int64(rep.Bytes)})
	case tok.aborted():
		// The stream outran its abort: a dispatch for a different module
		// (or Wait) claimed the slot while the last words were going out.
		// The guessed resident is about to be overwritten — marking it
		// prefetched now could outlive the preempting load's record and
		// starve the slot, so the bytes are waste directly.
		sh.book(ss.si, trace.Event{Ts: rep.At + rep.Time, Kind: trace.KindPrefetchWaste,
			Member: member, Region: region, Name: mod, Bytes: int64(rep.Bytes)})
	default:
		ss.prefetched = mod
		ss.prefetchedBytes = rep.Bytes
		ss.prefetchedTime = rep.Time
	}
	if !ss.busy {
		// The slot is idle again (completed or abandoned stream with no
		// real work waiting): a new dispatch round may find pending work it
		// can now serve as a hit, or fresh prefetch opportunities.
		sh.dispatchLocked()
	}
}

// runGroup runs one member's assignments of a dispatch round in order on
// the member's serialized timeline. With Options.Scrub every slot is
// scrubbed first, and a detection bounces its batch back to the queue.
// With Options.DMA every surviving head's stream then Begins before any
// assignment settles, so sibling regions' port windows overlap. Finally
// each assignment settles its window (or loads through CPU stores), runs
// its batch and releases its slot.
func (sh *shard) runGroup(group []assignment) {
	sc := sh.sc
	if sc.opts.Scrub {
		kept := group[:0]
		for _, a := range group {
			// Scrub-on-dispatch: verify the slot's region before trusting
			// its resident. The pass takes the member's lock — a
			// speculative stream in flight on this slot is serialized out
			// first, and an aborted one reads as already-demoted, never as
			// a fresh fault.
			arrive(a.ss, a.batch[0])
			rep := a.ss.m.Sys.ScrubOn(a.ss.ri)
			sh.mu.Lock()
			if sh.bookScrubLocked(a.ss, rep) {
				// The batch never ran: bounce it back to the head of the
				// queue in order and let dispatch place the requests
				// elsewhere (or wait out the repair).
				sh.book(a.ss.si, trace.Event{Ts: rep.At, Kind: trace.KindRequeue,
					Member: int32(a.ss.m.ID), Region: int32(a.ss.ri),
					ID: a.batch[0].id, Name: a.batch[0].task.Module(), Arg: int64(len(a.batch))})
				sh.pending = append(append([]*request(nil), a.batch...), sh.pending...)
				a.ss.busy = false
				sh.dispatchLocked()
			} else {
				kept = append(kept, a)
			}
			sh.mu.Unlock()
		}
		group = kept
	}
	tickets := make([]*platform.LoadTicket, len(group))
	if sc.opts.DMA {
		for i, a := range group {
			// On a Begin error the ticket stays nil and the head falls back
			// to ExecuteOn, which re-plans after the demotion and reports
			// whatever happens through the normal path.
			arrive(a.ss, a.batch[0])
			tickets[i], _ = a.ss.m.Sys.BeginExecuteOn(a.ss.ri, a.batch[0].task.Module())
		}
	}
	for i, a := range group {
		ss, sys := a.ss, a.ss.m.Sys
		for bi, req := range a.batch {
			t := req.task
			run := func() error { return t.Run(sys) }
			var rep platform.ExecReport
			var err error
			arrive(ss, req)
			if bi == 0 && tickets[i] != nil {
				rep, err = sys.FinishExecuteOn(tickets[i], run)
			} else {
				// Batch riders behind the head take the ordinary load
				// path — for riders a zero-stream cache hit.
				rep, err = sys.ExecuteOn(ss.ri, t.Module(), run)
			}
			res := Result{ID: req.id, Task: t.Name(), Module: t.Module(),
				Member: ss.m.ID, Region: ss.ri, System: sys.Name, Report: rep, Err: err}
			sh.record(ss, &res, req)
			req.ch <- res
			sc.inflight.Add(-1)
			sc.wg.Done()
		}
		sh.mu.Lock()
		ss.busy = false
		sh.dispatchLocked()
		sh.mu.Unlock()
	}
}

// arrive advances the member's clock to a SubmitAt request's arrival
// before a platform call serves it, a no-op once the clock is past it.
func arrive(ss *slotState, req *request) {
	if req.openLoop {
		ss.m.Sys.AdvanceTo(req.arrival)
	}
}

// bookScrubLocked books one readback scrub pass over the slot and, on a
// detection, quarantines the slot. Reports whether the pass detected
// corruption. Called with sh.mu held, after the pass itself ran under the
// member's lock.
func (sh *shard) bookScrubLocked(ss *slotState, rep platform.ScrubReport) bool {
	arg := int64(0)
	if rep.Detected {
		arg = 1
	}
	sh.book(ss.si, trace.Event{Ts: rep.At, Kind: trace.KindScrub,
		Member: int32(ss.m.ID), Region: int32(ss.ri), Name: rep.Module, Arg: arg})
	if rep.Detected {
		sh.quarantineLocked(ss, rep)
	}
	return rep.Detected
}

// quarantineLocked takes a corruption-detected slot out of service and
// launches its background repair. The scrub already demoted the region
// through the §2.2 hazard gate, so the repair's reload streams a complete
// configuration that overwrites every span frame — healing the flip is a
// side effect of the same invariant that makes abort recovery safe. The
// quarantine is stamped with the detecting scrub's member time. Called
// with sh.mu held.
func (sh *shard) quarantineLocked(ss *slotState, rep platform.ScrubReport) {
	ss.quarantined = true
	ss.resident = ""
	member, region := int32(ss.m.ID), int32(ss.ri)
	sh.book(ss.si, trace.Event{Ts: rep.At, Kind: trace.KindQuarantine,
		Member: member, Region: region, Name: rep.Module})
	// A prefetched-but-unconsumed guess sat in the corrupted region: its
	// bytes can never be consumed now, so they are waste — booked here,
	// exactly once, keeping the speculative conservation law intact.
	if ss.prefetched != "" {
		sh.book(ss.si, trace.Event{Ts: rep.At, Kind: trace.KindPrefetchWaste,
			Member: member, Region: region, Name: ss.prefetched, Bytes: int64(ss.prefetchedBytes)})
		ss.prefetched, ss.prefetchedBytes, ss.prefetchedTime = "", 0, 0
	}
	sh.sc.repairWG.Add(1)
	go sh.runRepair(ss, rep.Module, rep.At)
}

// runRepair restores a quarantined slot off the request path: reload the
// module the fault evicted (a complete stream, by the hazard gate), then
// return the slot to service warm. A blank region needs no stream — its
// next real load is complete by construction — so its repair is an
// instant at the quarantine's time, at.
func (sh *shard) runRepair(ss *slotState, module string, at sim.Time) {
	defer sh.sc.repairWG.Done()
	rep := platform.ConfigReport{At: at}
	var err error
	if module != "" {
		rep, err = ss.m.Sys.LoadModuleOn(ss.ri, module, nil)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.book(ss.si, trace.Event{Ts: rep.At, Dur: rep.Time, Kind: trace.KindRepair,
		Member: int32(ss.m.ID), Region: int32(ss.ri), Name: module, Bytes: int64(rep.Bytes)})
	ss.quarantined = false
	if module != "" && err == nil {
		ss.resident = module
	}
	// Requests that queued up behind the quarantine can go out now.
	sh.dispatchLocked()
}

// scrubAll runs one readback scrub pass over the shard's idle slots; see
// Scheduler.ScrubAll.
func (sh *shard) scrubAll() int {
	sh.mu.Lock()
	var targets []*slotState
	for _, ss := range sh.slots {
		if ss.busy || ss.specBusy || ss.quarantined || ss.scrubbing || !sh.memberQuiet(ss.m) {
			continue
		}
		targets = append(targets, ss)
	}
	// Mark after selecting: scrubbing flags make the member non-quiet, and
	// sibling regions of one quiet member should both be scrubbed this
	// pass (the passes serialize briefly on the member's lock).
	for _, ss := range targets {
		ss.scrubbing = true
	}
	sh.mu.Unlock()
	detected := 0
	for _, ss := range targets {
		rep := ss.m.Sys.ScrubOn(ss.ri)
		sh.mu.Lock()
		ss.scrubbing = false
		if sh.bookScrubLocked(ss, rep) {
			detected++
		}
		sh.dispatchLocked()
		sh.mu.Unlock()
	}
	return detected
}

// record books one completed request — its spans, its complete event and
// what it did to the slot's prefetched module — and fills its pool-wide
// completion sequence res.Seq and its time fields in place.
func (sh *shard) record(ss *slotState, res *Result, req *request) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	res.Seq = sh.sc.done.Add(1)
	// Refresh the cached resident: a clean execution leaves its module
	// configured and verified; after an error the region's content is not
	// trustworthy, so the slot reads as blank (worst case, never unsafe —
	// the manager's own hazard gate still guards the streams).
	if res.Err == nil {
		ss.resident = res.Module
	} else {
		ss.resident = ""
	}
	rep := &res.Report
	res.Arrival, res.DoneAt = rep.At, rep.At+rep.Latency()
	if req.openLoop {
		res.Arrival = req.arrival
	}
	res.Sojourn = res.DoneAt - res.Arrival
	member, region, bytes := int32(ss.m.ID), int32(ss.ri), int64(rep.BytesStreamed)
	if rep.ConfigHidden > 0 {
		sh.book(ss.si, trace.Event{Ts: rep.At - rep.ConfigHidden, Dur: rep.ConfigHidden,
			Kind: trace.KindOverlap, Member: member, Region: region,
			ID: req.id, Name: res.Module, Bytes: bytes})
	}
	if rep.Config > 0 {
		sh.book(ss.si, trace.Event{Ts: rep.At, Dur: rep.Config,
			Kind: trace.KindConfig, Member: member, Region: region,
			ID: req.id, Name: res.Module, Bytes: bytes})
	}
	if rep.Work > 0 {
		sh.book(ss.si, trace.Event{Ts: rep.At + rep.Config, Dur: rep.Work,
			Kind: trace.KindCompute, Member: member, Region: region,
			ID: req.id, Name: res.Module})
	}
	sh.book(ss.si, trace.Event{Ts: res.DoneAt, Kind: trace.KindComplete,
		Stream: uint8(rep.Kind), Hit: rep.CacheHit, DMA: rep.DMA, Err: res.Err != nil,
		Member: member, Region: region, ID: req.id, Name: res.Module,
		Arg: int64(res.Sojourn), Bytes: bytes})
	// Consume the slot's prefetched module: the first hit on it banks
	// the speculative stream time as hidden; a real load replacing it
	// books the speculative bytes as wasted.
	if ss.prefetched == "" {
		return
	}
	switch {
	case rep.CacheHit && res.Module == ss.prefetched:
		sh.book(ss.si, trace.Event{Ts: rep.At, Kind: trace.KindPrefetchHit,
			Member: member, Region: region, ID: req.id, Name: ss.prefetched,
			Arg: int64(ss.prefetchedTime), Bytes: int64(ss.prefetchedBytes)})
	case rep.Kind != plan.StreamNone:
		sh.book(ss.si, trace.Event{Ts: rep.At, Kind: trace.KindPrefetchWaste,
			Member: member, Region: region, ID: req.id, Name: ss.prefetched,
			Bytes: int64(ss.prefetchedBytes)})
	default:
		return
	}
	ss.prefetched, ss.prefetchedBytes, ss.prefetchedTime = "", 0, 0
}

// book is the shard's one booking path: it folds the event into the
// shard's counters and forwards it to the tracer, a no-op when
// Options.Trace is nil. si is the event's slot, -1 for a scheduler-level
// event. Called with sh.mu held.
func (sh *shard) book(si int, e trace.Event) {
	sh.stats.fold(si, e)
	sh.sc.opts.Trace.Emit(e)
}
