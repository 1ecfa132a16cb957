package sched

import (
	"testing"
	"time"

	"repro/internal/predict"
	"repro/internal/tasks"
	"repro/internal/trace"
)

// TestScrubQuarantineRepairReturnsSlotToService drives the idle-slot fault
// loop end to end: a fault injected into a warm slot is caught by a
// ScrubAll pass, the slot is quarantined and repaired in the background
// (reloading the module the fault evicted), and the next request for that
// module finds the repaired slot warm again — a cache hit, as if the fault
// never happened.
func TestScrubQuarantineRepairReturnsSlotToService(t *testing.T) {
	p := pool64x2(t, 1)
	s := New(p, Options{})
	r := <-s.Submit(tasks.JenkinsRun{Seed: 1, Len: 256, InitVal: 3})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	quiesce(t, s)
	if err := p.Members()[0].Sys.InjectFaultOn(r.Region, 0, 0, 5); err != nil {
		t.Fatal(err)
	}
	if n := s.ScrubAll(); n != 1 {
		t.Fatalf("ScrubAll detected %d corrupted slots, want 1", n)
	}
	quiesce(t, s) // waits out the background repair (Drained covers quarantines)
	st := s.Stats()
	if st.FaultsDetected != 1 || st.Repairs != 1 {
		t.Fatalf("detected %d / repaired %d, want 1 / 1", st.FaultsDetected, st.Repairs)
	}
	if st.RepairBytes == 0 || st.RepairConfig == 0 {
		t.Fatalf("repair streamed %d B in %v, want a real complete reload", st.RepairBytes, st.RepairConfig)
	}
	if st.ScrubPasses < 2 {
		t.Fatalf("scrub passes %d, want both slots scrubbed", st.ScrubPasses)
	}
	// The repair restored the evicted module: same request, zero streams.
	r2 := <-s.Submit(tasks.JenkinsRun{Seed: 2, Len: 256, InitVal: 3})
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if !r2.Report.CacheHit || r2.Region != r.Region {
		t.Fatalf("post-repair request got %+v on region %d, want cache hit on repaired region %d",
			r2.Report, r2.Region, r.Region)
	}
	s.Wait()
	for _, m := range p.Snapshot() {
		if m.Corrupted {
			t.Fatal("static design corrupted")
		}
	}
}

// TestFaultRequeueOnDispatchScrub pins the in-flight half of the loop:
// with Options.Scrub the dispatch-time scrub catches a fault on the very
// slot a request was placed on (a cache hit on the corrupted resident),
// requeues the request, and dispatch serves it from a healthy slot while
// the faulted one repairs in the background. The request completes
// cleanly — the fault cost a requeue and a stream, never correctness. With
// DMA on, every miss (the requeued one included) still streams through
// the dock engines: the scrub runs before any stream begins.
func TestFaultRequeueOnDispatchScrub(t *testing.T) {
	for _, dma := range []bool{false, true} {
		p := pool64x2(t, 1)
		s := New(p, Options{Scrub: true, DMA: dma})
		warm := <-s.Submit(tasks.JenkinsRun{Seed: 1, Len: 256, InitVal: 3})
		if warm.Err != nil {
			t.Fatal(warm.Err)
		}
		quiesce(t, s)
		other := <-s.Submit(tasks.FadeRun{Seed: 2, N: 256, F: 9})
		if other.Err != nil {
			t.Fatal(other.Err)
		}
		quiesce(t, s)
		if warm.Region == other.Region {
			t.Fatalf("dma=%v: warmup landed both modules on region %d", dma, warm.Region)
		}
		if err := p.Members()[0].Sys.InjectFaultOn(warm.Region, 1, 1, 7); err != nil {
			t.Fatal(err)
		}
		// The jenkins request is dispatched to its (corrupted) resident
		// slot; the dispatch scrub bounces it to the fade slot.
		r := <-s.Submit(tasks.JenkinsRun{Seed: 3, Len: 256, InitVal: 3})
		if r.Err != nil {
			t.Fatalf("dma=%v: requeued request failed: %v", dma, r.Err)
		}
		if r.Region != other.Region || r.Report.CacheHit {
			t.Fatalf("dma=%v: requeued request ran on region %d (%+v), want a miss on healthy region %d",
				dma, r.Region, r.Report, other.Region)
		}
		for _, res := range []Result{warm, other, r} {
			if res.Report.DMA != dma {
				t.Errorf("dma=%v: request %d (%s) missed with Report.DMA = %v", dma, res.ID, res.Task, res.Report.DMA)
			}
		}
		quiesce(t, s)
		st := s.Stats()
		if st.Requeues != 1 || st.FaultsDetected != 1 || st.Repairs != 1 {
			t.Fatalf("dma=%v: requeues %d / detected %d / repairs %d, want 1 / 1 / 1",
				dma, st.Requeues, st.FaultsDetected, st.Repairs)
		}
		if st.Done != 3 || st.Errors != 0 {
			t.Fatalf("dma=%v: stats %+v, want 3 clean completions", dma, st)
		}
		wantDMA := uint64(0)
		if dma {
			wantDMA = 3
		}
		if st.DMALoads != wantDMA {
			t.Errorf("dma=%v: DMALoads = %d, want %d (one per miss)", dma, st.DMALoads, wantDMA)
		}
		s.Wait()
	}
}

// TestScrubRaceKeepsSpeculativeByteConservation is the scrub/abort
// interaction audit alongside TestSpeculativeByteConservation, run with
// -race: the learned three-module rotation keeps speculative streams
// constantly in flight while a hammer goroutine scrubs every idle slot and
// faults are injected along the way. A scrub firing around an abortable
// speculative stream must neither double-demote the region nor break the
// conservation law — every speculative byte still lands in exactly one of
// consumed / wasted / pending, and every detection resolves in exactly one
// repair.
func TestScrubRaceKeepsSpeculativeByteConservation(t *testing.T) {
	check := func(t *testing.T, st Stats, when string) {
		t.Helper()
		if st.PrefetchBytes != st.PrefetchConsumed+st.PrefetchWasted+st.PrefetchPending {
			t.Fatalf("%s: speculative bytes unbalanced: streamed %d != consumed %d + wasted %d + pending %d",
				when, st.PrefetchBytes, st.PrefetchConsumed, st.PrefetchWasted, st.PrefetchPending)
		}
	}
	pred, err := predict.New("markov")
	if err != nil {
		t.Fatal(err)
	}
	p := pool64x2(t, 1)
	s := New(p, Options{Prefetch: true, Predictor: pred, Scrub: true})
	mk := func(i int) tasks.Runner {
		switch i % 3 {
		case 0:
			return tasks.JenkinsRun{Seed: int64(i), Len: 128, InitVal: 7}
		case 1:
			return tasks.FadeRun{Seed: int64(i), N: 256, F: 31}
		}
		return tasks.BrightnessRun{Seed: int64(i), N: 256, Delta: 11}
	}
	// The hammer scrubs whatever is idle, concurrently with dispatches,
	// speculative streams and aborts. It naps between passes so the
	// quiesce polls can still observe a fully drained instant.
	done := make(chan struct{})
	hammered := make(chan struct{})
	go func() {
		defer close(hammered)
		for {
			select {
			case <-done:
				return
			default:
				s.ScrubAll()
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	const rounds = 30
	for i := 0; i < rounds; i++ {
		quiesce(t, s)
		if i%5 == 4 {
			// Inject at a quiesced point and force a deterministic look:
			// either this pass or the hammer's concurrent one detects it
			// (the region content hash catches every single-bit flip).
			if err := p.Members()[0].Sys.InjectFaultOn(i/5%2, 0, i, 3); err != nil {
				t.Fatal(err)
			}
			s.ScrubAll()
			quiesce(t, s)
		}
		if r := <-s.Submit(mk(i)); r.Err != nil {
			t.Fatalf("round %d: %v", i, r.Err)
		}
		check(t, s.Stats(), "round")
	}
	close(done)
	<-hammered
	s.Wait()
	st := s.Stats()
	check(t, st, "final")
	if st.PrefetchIssued != st.PrefetchCompleted+st.PrefetchAborted {
		t.Fatalf("speculative loads unresolved: issued %d, completed %d, aborted %d",
			st.PrefetchIssued, st.PrefetchCompleted, st.PrefetchAborted)
	}
	if st.FaultsDetected != st.Repairs {
		t.Fatalf("fault conservation broken: %d detected != %d repaired", st.FaultsDetected, st.Repairs)
	}
	if st.FaultsDetected == 0 {
		t.Fatal("no injected fault was ever detected")
	}
	if st.Done != rounds || st.Errors != 0 {
		t.Fatalf("stats %+v, want %d clean completions", st, rounds)
	}
	for _, m := range p.Snapshot() {
		if m.Corrupted {
			t.Fatal("static design corrupted")
		}
	}
}

// TestScrubEventsCarryMemberTime: scrub and quarantine events are stamped
// with the member's simulated time, which the pass reads under the member's
// lock, not with a submission's arrival (0 for a Submit request). An
// S7-shaped drive — dual-region members, scrub on dispatch, paced, an
// upset in a still-blank region and one in a loaded one, each followed
// by a ScrubAll pass — must show a nonzero stamp on every scrub
// of a member that has completed a request, each quarantine at its
// scrub's instant, and each quarantine resolved by exactly one repair
// event (an instant for the blank region) starting no earlier.
func TestScrubEventsCarryMemberTime(t *testing.T) {
	mix, err := ParseMix("jenkins=2,brightness=1,fade=2,blend=1")
	if err != nil {
		t.Fatal(err)
	}
	w, err := GenWorkload(7, 30, mix)
	if err != nil {
		t.Fatal(err)
	}
	p := pool64x2(t, 2)
	tr := trace.New()
	var events []trace.Event // in emission order
	tr.SetSink(func(e trace.Event) { events = append(events, e) })
	s := New(p, Options{Batch: 1, Scrub: true, Trace: tr})
	if err := p.Members()[1].Sys.InjectFaultOn(1, 0, 0, 3); err != nil {
		t.Fatal(err)
	}
	s.ScrubAll()
	drainTest(s)
	done := 0
	s.SubmitWindowed(w, 1, func(r Result) {
		if r.Err != nil {
			t.Errorf("request %d (%s): %v", r.ID, r.Task, r.Err)
		}
		drainTest(s)
		if done++; done == 10 {
			if err := p.Members()[r.Member].Sys.InjectFaultOn(r.Region, 1, 1, 7); err != nil {
				t.Error(err)
			}
			s.ScrubAll()
			drainTest(s)
		}
	})
	s.Wait()

	type slot struct{ member, region int32 }
	computed := map[int32]bool{}
	detections := map[slot][]trace.Event{}
	quarantines := map[slot][]trace.Event{}
	repairs := map[slot][]trace.Event{}
	stamped := 0
	for _, e := range events {
		sl := slot{e.Member, e.Region}
		switch e.Kind {
		case trace.KindCompute:
			computed[e.Member] = true
		case trace.KindScrub:
			if computed[e.Member] {
				if e.Ts == 0 {
					t.Errorf("scrub of member %d region %d after its first completion stamped at 0", e.Member, e.Region)
				}
				stamped++
			}
			if e.Arg == 1 {
				detections[sl] = append(detections[sl], e)
			}
		case trace.KindQuarantine:
			quarantines[sl] = append(quarantines[sl], e)
		case trace.KindRepair:
			repairs[sl] = append(repairs[sl], e)
		}
	}
	if stamped == 0 || len(quarantines) == 0 {
		t.Fatalf("%d scrubs after a completion, %d quarantined slots: the drive checks nothing", stamped, len(quarantines))
	}
	blank := 0
	for sl, qs := range quarantines {
		ds := detections[sl]
		if len(ds) != len(qs) {
			t.Fatalf("slot %v: %d detecting scrubs, %d quarantines", sl, len(ds), len(qs))
		}
		for i, q := range qs {
			if q.Ts != ds[i].Ts || q.Name != ds[i].Name {
				t.Errorf("slot %v: quarantine %+v does not match its scrub %+v", sl, q, ds[i])
			}
			if q.Name == "" {
				blank++
			}
		}
		rs := repairs[sl]
		if len(rs) != len(qs) {
			t.Fatalf("slot %v: %d repairs for %d quarantines", sl, len(rs), len(qs))
		}
		for i, r := range rs {
			if r.Ts < qs[i].Ts {
				t.Errorf("slot %v: repair at %v starts before its quarantine at %v", sl, r.Ts, qs[i].Ts)
			}
		}
	}
	if len(repairs) != len(quarantines) {
		t.Fatalf("repairs on %d slots, quarantines on %d", len(repairs), len(quarantines))
	}
	if blank == 0 {
		t.Fatal("no blank region was quarantined")
	}
}
