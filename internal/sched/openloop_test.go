package sched

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/tasks"
	"repro/internal/trace"
)

// TestOpenLoopOneClock drives traced SubmitAt workloads with seeded
// Poisson arrivals 5 us apart on average and holds every request to its
// member's one clock: the request starts no earlier than it arrived (nor
// do its DMA port window and its scrub on dispatch), its complete event
// sits at its compute span's end, its sojourn is the wait from arrival to
// start plus its config and work, and no two requests overlap on one
// member. The events still fold back to Stats(). Each drive reaches one
// of the calls a member advances before: two Sys32 boards on the CPU
// store path, then dual-region boards with DMA heads, then with scrubbing
// on dispatch.
func TestOpenLoopOneClock(t *testing.T) {
	const mixed = "sha1=1,jenkins=2,patternmatch=1,brightness=2,blend=2,fade=2,transfer=1"
	drives := []struct {
		name, mix string
		pool      func(t testing.TB, n int) *pool.Pool
		opts      Options
		check     func(st Stats) bool
	}{
		{"sys32-cpu", "jenkins=1,brightness=1", pool32, Options{Batch: 4},
			func(st Stats) bool { return st.Misses > 0 }},
		{"sys64x2-dma", mixed, pool64x2, Options{Batch: 4, DMA: true},
			func(st Stats) bool { return st.DMALoads > 0 }},
		{"sys64x2-scrub", mixed, pool64x2, Options{Batch: 4, Scrub: true},
			func(st Stats) bool { return st.ScrubPasses > 0 }},
	}
	for _, d := range drives {
		t.Run(d.name, func(t *testing.T) {
			mix, err := ParseMix(d.mix)
			if err != nil {
				t.Fatal(err)
			}
			w, err := GenWorkload(7, 40, mix)
			if err != nil {
				t.Fatal(err)
			}
			p := d.pool(t, 2)
			var ready sim.Time
			for _, m := range p.Snapshot() {
				ready = max(ready, m.Now)
			}
			rng := rand.New(rand.NewSource(7))
			at := ready
			tr := trace.New()
			var emitted []trace.Event // in emission order
			tr.SetSink(func(e trace.Event) { emitted = append(emitted, e) })
			opts := d.opts
			opts.Trace = tr
			s := New(p, opts)
			chs := make([]<-chan Result, len(w))
			for i, task := range w {
				chs[i] = s.SubmitAt(task, at)
				at += sim.Time(float64(5*sim.Microsecond) * rng.ExpFloat64())
			}
			res := collect(t, chs)
			s.Wait()
			checkOneClock(t, res, emitted)
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

// checkOneClock checks TestOpenLoopOneClock's rules on the results and
// the events in emission order.
func checkOneClock(t *testing.T, res []Result, events []trace.Event) {
	t.Helper()
	computeEnd := make(map[uint64]sim.Time)
	completeAt := make(map[uint64]sim.Time)
	// A slot's scrub on dispatch follows the dispatch, which carries the
	// head's arrival.
	dispatched := make(map[[2]int32][]sim.Time)
	for _, e := range events {
		sl := [2]int32{e.Member, e.Region}
		switch e.Kind {
		case trace.KindCompute:
			computeEnd[e.ID] = e.Ts + e.Dur
		case trace.KindComplete:
			completeAt[e.ID] = e.Ts
		case trace.KindDispatch:
			dispatched[sl] = append(dispatched[sl], e.Ts)
		case trace.KindScrub:
			if q := dispatched[sl]; len(q) > 0 {
				if e.Ts < q[0] {
					t.Errorf("slot %v scrubs at %v, before its head arrived at %v", sl, e.Ts, q[0])
				}
				dispatched[sl] = q[1:]
			}
		}
	}
	windows := make(map[int][][2]sim.Time)
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("request %d (%s): %v", r.ID, r.Task, r.Err)
		}
		rep := r.Report
		if rep.At-rep.ConfigHidden < r.Arrival {
			t.Errorf("request %d starts at %v (its window %v earlier), before it arrived at %v",
				r.ID, rep.At, rep.ConfigHidden, r.Arrival)
			continue
		}
		if end, ok := computeEnd[r.ID]; !ok || completeAt[r.ID] != end {
			t.Errorf("request %d completes at %v, its compute span ends at %v", r.ID, completeAt[r.ID], end)
		}
		if want := rep.At - r.Arrival + rep.Config + rep.Work; r.Sojourn != want {
			t.Errorf("request %d sojourn %v, want wait %v + config %v + work %v",
				r.ID, r.Sojourn, rep.At-r.Arrival, rep.Config, rep.Work)
		}
		windows[r.Member] = append(windows[r.Member], [2]sim.Time{rep.At, r.DoneAt})
	}
	for m, ws := range windows {
		sort.Slice(ws, func(i, j int) bool { return ws[i][0] < ws[j][0] })
		for i := 1; i < len(ws); i++ {
			if ws[i][0] < ws[i-1][1] {
				t.Errorf("member %d serves [%v, %v] inside [%v, %v]", m, ws[i][0], ws[i][1], ws[i-1][0], ws[i-1][1])
			}
		}
	}
}

// TestRejectedSubmitAtReportsArrival: a SubmitAt request no slot supports
// completes at once, at its arrival stamp — its Result says so, matching
// its complete event, and its sojourn is 0.
func TestRejectedSubmitAtReportsArrival(t *testing.T) {
	tr := trace.New()
	s := New(pool32(t, 1), Options{Trace: tr})
	const arrival = 5 * sim.Microsecond
	r := <-s.SubmitAt(tasks.SHA1Run{Seed: 1, Len: 64}, arrival)
	s.Wait()
	if r.Err == nil || r.Member != -1 {
		t.Fatalf("result %+v, want an unsupported-module error", r)
	}
	var done []trace.Event
	for _, e := range tr.Events() {
		if e.Kind == trace.KindComplete {
			done = append(done, e)
		}
	}
	if len(done) != 1 || done[0].Ts != arrival {
		t.Fatalf("complete events %+v, want one at %v", done, arrival)
	}
	if r.Arrival != done[0].Ts || r.DoneAt != arrival || r.Sojourn != 0 {
		t.Fatalf("result arrival %v done %v sojourn %v, want %v, %v, 0", r.Arrival, r.DoneAt, r.Sojourn, arrival, arrival)
	}
}
