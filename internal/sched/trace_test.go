package sched

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/pool"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/tasks"
	"repro/internal/trace"
)

// drainTest busy-waits for a fully drained scheduler, like the bench
// suites' pacing discipline.
func drainTest(s *Scheduler) {
	for !s.Drained() {
		time.Sleep(50 * time.Microsecond)
	}
}

// tracedPacedDrive runs the deterministic paced drive the trace tests
// share — a mixed seeded workload, window 1, settled between arrivals —
// and returns the final stats and the pool it ran on (Options.Trace is
// nil when tr is nil).
func tracedPacedDrive(t *testing.T, tr *trace.Tracer) (Stats, *pool.Pool) {
	t.Helper()
	mix, err := ParseMix("jenkins=2,brightness=1,fade=2,blend=1")
	if err != nil {
		t.Fatal(err)
	}
	w, err := GenWorkload(7, 24, mix)
	if err != nil {
		t.Fatal(err)
	}
	p := pool32(t, 2)
	s := New(p, Options{Batch: 1, Trace: tr})
	s.SubmitWindowed(w, 1, func(r Result) {
		if r.Err != nil {
			t.Errorf("request %d (%s): %v", r.ID, r.Task, r.Err)
		}
		drainTest(s)
	})
	s.Wait()
	return s.Stats(), p
}

// TestTraceDeterministicPacedRuns drives the identical paced workload
// twice with tracing on: the exported Chrome trace-event JSON must be
// byte-identical — the reproducibility property that lets traced runs
// (and the S9 SLO suite built on the same clock) gate in CI.
func TestTraceDeterministicPacedRuns(t *testing.T) {
	var runs [][]byte
	for i := 0; i < 2; i++ {
		tr := trace.New()
		tracedPacedDrive(t, tr)
		if tr.Len() == 0 {
			t.Fatal("traced run emitted no events")
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, buf.Bytes())
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatalf("paced runs traced differently: %d vs %d bytes", len(runs[0]), len(runs[1]))
	}
}

// TestTraceConservationDispatch checks the span-sum conservation law on
// the request path: summed over every (member, region) track, the config
// spans equal Stats.Config exactly and the compute spans equal
// Stats.Work — the trace is the accounting, not an approximation of it.
func TestTraceConservationDispatch(t *testing.T) {
	tr := trace.New()
	st, p := tracedPacedDrive(t, tr)
	events := tr.Events()
	var config, work sim.Time
	for _, m := range p.Members() {
		for ri := 0; ri < m.Sys.NumRegions(); ri++ {
			config += trace.SumDur(events, trace.KindConfig, int32(m.ID), int32(ri))
			work += trace.SumDur(events, trace.KindCompute, int32(m.ID), int32(ri))
		}
	}
	if st.Config == 0 || st.Work == 0 {
		t.Fatalf("degenerate drive: config %v work %v", st.Config, st.Work)
	}
	if config != st.Config {
		t.Fatalf("config spans sum to %v, Stats.Config %v", config, st.Config)
	}
	if work != st.Work {
		t.Fatalf("compute spans sum to %v, Stats.Work %v", work, st.Work)
	}
}

// TestTraceDisabledMatchesUntraced reruns the paced drive with tracing
// off and on: the scheduler's simulated accounting must be identical —
// tracing observes the run, it never perturbs placement or time.
func TestTraceDisabledMatchesUntraced(t *testing.T) {
	off, _ := tracedPacedDrive(t, nil)
	on, _ := tracedPacedDrive(t, trace.New())
	if off.Config != on.Config || off.Work != on.Work ||
		off.BytesStreamed != on.BytesStreamed ||
		off.Hits != on.Hits || off.Misses != on.Misses ||
		off.Done != on.Done || off.Errors != on.Errors {
		t.Fatalf("stats diverge with tracing on:\noff %+v\non  %+v", off, on)
	}
}

// TestTraceDisabledZeroOverheadDispatch is the benchmark assertion
// guarding the hot path: the exact nil-check guard the dispatch and
// record paths use, plus a nil-receiver Emit, must allocate nothing and
// construct no event. A regression here (an unconditional Event build, a
// sink behind the nil tracer) fails the assertion immediately.
func TestTraceDisabledZeroOverheadDispatch(t *testing.T) {
	s := New(pool32(t, 1), Options{}) // Trace nil: the default
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tr := s.opts.Trace; tr != nil {
				tr.Emit(trace.Event{Ts: 0, Kind: trace.KindDispatch})
			}
			s.opts.Trace.Emit(trace.Event{Kind: trace.KindComplete, Name: "noop"})
		}
	})
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("disabled-trace dispatch guard allocates %d/op, want 0", a)
	}
	s.Wait()
}

// foldTrace folds a traced run's events into a fresh Stats with want's
// slot layout, mapping each event's (member, region) track to its slot.
func foldTrace(events []trace.Event, want Stats) Stats {
	got := Stats{Slots: want.Slots, BusyTime: make([]sim.Time, len(want.BusyTime))}
	index := make(map[SlotID]int, len(want.Slots))
	for i, sl := range want.Slots {
		index[sl] = i
	}
	for _, e := range events {
		si, ok := index[SlotID{Member: int(e.Member), Region: int(e.Region)}]
		if !ok {
			si = -1
		}
		got.fold(si, e)
	}
	return got
}

// TestTraceFoldsToStats holds the scheduler to its one book: on six drives
// that between them reach every counter — prefetch hits, overwritten and
// aborted guesses, DMA and compressed loads, upsets with scrubs, requeues
// and repairs, steals and submit-rejected requests — folding the traced
// run's events into a fresh Stats rebuilds s.Stats() exactly, except
// PrefetchPending, which is summed from slot state. Each drive also checks
// that it reached what it is there for.
func TestTraceFoldsToStats(t *testing.T) {
	mix, err := ParseMix("sha1=1,jenkins=2,patternmatch=1,brightness=2,blend=2,fade=2,transfer=1")
	if err != nil {
		t.Fatal(err)
	}
	workload := func(t *testing.T, seed int64, n int) []tasks.Runner {
		w, err := GenWorkload(seed, n, mix)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	markov := func(t *testing.T) predict.Predictor {
		pred, err := predict.New("markov")
		if err != nil {
			t.Fatal(err)
		}
		return pred
	}
	clean := func(t *testing.T) func(Result) {
		return func(r Result) {
			if r.Err != nil {
				t.Errorf("request %d (%s): %v", r.ID, r.Task, r.Err)
			}
		}
	}
	drives := []struct {
		name  string
		drive func(t *testing.T, tr *trace.Tracer) *Scheduler
		check func(st Stats) bool
	}{
		{"paced-mincost-markov", func(t *testing.T, tr *trace.Tracer) *Scheduler {
			p, err := pool.New(pool.Config{Sys32: 2, Sys64: 2})
			if err != nil {
				t.Fatal(err)
			}
			s := New(p, Options{Batch: 4, Policy: policies["mincost"], Prefetch: true, Predictor: markov(t), Trace: tr})
			s.SubmitWindowed(workload(t, 7, 60), 1, func(r Result) {
				clean(t)(r)
				drainTest(s)
			})
			drainTest(s)
			return s
		}, func(st Stats) bool { return st.PrefetchWasted > 0 && st.HiddenConfig > 0 }},
		{"windowed-prefetch", func(t *testing.T, tr *trace.Tracer) *Scheduler {
			p, err := pool.New(pool.Config{Sys32: 2, Sys64: 2})
			if err != nil {
				t.Fatal(err)
			}
			s := New(p, Options{Batch: 3, Policy: policies["mincost"], Prefetch: true, Trace: tr})
			s.SubmitWindowed(workload(t, 99, 60), 2, clean(t))
			return s
		}, func(st Stats) bool { return st.PrefetchIssued > 0 }},
		{"paired-gang-dma-compressed", func(t *testing.T, tr *trace.Tracer) *Scheduler {
			p := pool64x2(t, 2)
			p.SetCompression(true)
			s := New(p, Options{Batch: 4, Policy: policies["gang"], DMA: true, Trace: tr})
			w := workload(t, 7, 40)
			for i := 0; i < len(w); i += 2 {
				for _, ch := range s.SubmitBatch(w[i:min(i+2, len(w))]) {
					clean(t)(<-ch)
				}
				drainTest(s)
			}
			return s
		}, func(st Stats) bool { return st.DMALoads > 0 && st.CompressedLoads > 0 && st.OverlapConfig > 0 }},
		{"paced-upsets-scrub", func(t *testing.T, tr *trace.Tracer) *Scheduler {
			p := pool64x2(t, 2)
			scs, err := fault.Campaign("uniform", 7, 60, fault.PoolSlots(p))
			if err != nil {
				t.Fatal(err)
			}
			s := New(p, Options{Batch: 4, Policy: policies["mincost"], Scrub: true, Trace: tr})
			// An upset in a still-blank region: its repair streams nothing.
			if err := p.Members()[1].Sys.InjectFaultOn(1, 0, 0, 3); err != nil {
				t.Fatal(err)
			}
			s.ScrubAll()
			drainTest(s)
			cur, done := scs[0].Cursor(), 0
			s.SubmitWindowed(workload(t, 7, 60), 1, func(r Result) {
				clean(t)(r)
				drainTest(s)
				done++
				due := cur.Due(done)
				for _, e := range due {
					if err := fault.Apply(p, e); err != nil {
						t.Error(err)
					}
				}
				if len(due) > 0 {
					s.ScrubAll()
					drainTest(s)
				}
			})
			return s
		}, func(st Stats) bool { return st.FaultsDetected > 0 && st.Repairs == st.FaultsDetected }},
		{"dispatch-scrub-requeue", func(t *testing.T, tr *trace.Tracer) *Scheduler {
			p := pool64x2(t, 1)
			s := New(p, Options{Scrub: true, Trace: tr})
			warm := <-s.Submit(tasks.JenkinsRun{Seed: 1, Len: 256, InitVal: 3})
			clean(t)(warm)
			drainTest(s)
			clean(t)(<-s.Submit(tasks.FadeRun{Seed: 2, N: 256, F: 9}))
			drainTest(s)
			if err := p.Members()[0].Sys.InjectFaultOn(warm.Region, 1, 1, 7); err != nil {
				t.Fatal(err)
			}
			clean(t)(<-s.Submit(tasks.JenkinsRun{Seed: 3, Len: 256, InitVal: 3}))
			return s
		}, func(st Stats) bool { return st.Requeues > 0 }},
		{"sharded-steals-rejects", func(t *testing.T, tr *trace.Tracer) *Scheduler {
			s := New(pool32(t, 4), Options{Batch: 2, Policy: policies["mincost"], Shards: 4, Trace: tr})
			for _, ch := range s.SubmitAll(workload(t, 7, 80)) {
				if r := <-ch; r.Err != nil && (r.Module != "sha1" || r.Member != -1) {
					t.Errorf("request %d (%s): %v", r.ID, r.Task, r.Err)
				}
			}
			return s
		}, func(st Stats) bool { return st.Errors > 0 && st.Steals > 0 }},
	}
	for _, d := range drives {
		t.Run(d.name, func(t *testing.T) {
			tr := trace.New()
			s := d.drive(t, tr)
			s.Wait()
			want := s.Stats()
			if !d.check(want) {
				t.Fatalf("drive reached nothing it is there for: %+v", want)
			}
			got := foldTrace(tr.Events(), want)
			want.PrefetchPending = 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trace folds to\n%+v\nStats() is\n%+v", got, want)
			}
		})
	}
}

// TestTraceOffBookAllocatesNothing: with Options.Trace nil, booking any
// kind the scheduler books only folds it into the shard's Stats, which
// allocates nothing.
func TestTraceOffBookAllocatesNothing(t *testing.T) {
	s := New(pool32(t, 1), Options{})
	sh := s.shards[0]
	kinds := []trace.Kind{trace.KindSubmit, trace.KindDispatch, trace.KindSteal,
		trace.KindConfig, trace.KindOverlap, trace.KindCompute, trace.KindComplete,
		trace.KindPrefetchLaunch, trace.KindPrefetchConfig, trace.KindPrefetchHit,
		trace.KindPrefetchWaste, trace.KindScrub, trace.KindQuarantine,
		trace.KindRequeue, trace.KindRepair}
	sh.mu.Lock()
	for _, k := range kinds {
		e := trace.Event{Ts: 1, Dur: 2, Kind: k, Stream: 1, Member: 0, Region: 0,
			ID: 3, Name: "fade", Arg: 4, Bytes: 5}
		if a := testing.AllocsPerRun(100, func() { sh.book(0, e) }); a != 0 {
			t.Errorf("book(%v) allocates %v/op with tracing off", k, a)
		}
	}
	sh.mu.Unlock()
	s.Wait()
}
