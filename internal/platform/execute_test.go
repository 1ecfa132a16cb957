package platform

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestExecuteCacheHitMiss(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ResidentOn(0); got != "" {
		t.Fatalf("fresh system resident = %q, want blank", got)
	}
	if !s.SupportsOn(0, "fade") || s.SupportsOn(0, "sha1") {
		t.Fatalf("Sys32 support: fade=%v sha1=%v, want true/false",
			s.SupportsOn(0, "fade"), s.SupportsOn(0, "sha1"))
	}
	miss, err := s.ExecuteOn(0, "fade", func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if miss.CacheHit || miss.Config == 0 {
		t.Fatalf("first load: hit=%v config=%v, want miss with nonzero config", miss.CacheHit, miss.Config)
	}
	hit, err := s.ExecuteOn(0, "fade", func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.Config != 0 {
		t.Fatalf("reload: hit=%v config=%v, want hit with zero config", hit.CacheHit, hit.Config)
	}
	if got := s.ResidentOn(0); got != "fade" {
		t.Fatalf("resident = %q, want fade", got)
	}
}

// TestPlanEventsAreExecutedPlans: a traced board books one plan event
// per stream its load path executes — through ExecuteOn, LoadModuleOn and
// BeginExecuteOn, a cache hit's no-op included — naming the executed kind
// and bytes, and nothing for the PlanForOn and RestoreEstimateOn cost
// queries that placement and prefetch sizing make.
func TestPlanEventsAreExecutedPlans(t *testing.T) {
	s, err := NewSys64N(2)
	if err != nil {
		t.Fatal(err)
	}
	// Compressed plans tell a plan's wire bytes, which the event
	// carries, from its decoded size.
	s.SetCompression(true)
	tr := trace.New()
	s.SetTracer(tr, 3)
	var want []trace.Event
	// expect prices the next stream of region ri, runs load and expects
	// the load path to have executed exactly that plan.
	expect := func(ri int, module string, load func() (plan.StreamKind, error)) {
		t.Helper()
		p, err := s.PlanForOn(ri, module)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RestoreEstimateOn(ri, module); err != nil {
			t.Fatal(err)
		}
		k, err := load()
		if err != nil {
			t.Fatalf("region %d, %s: %v", ri, module, err)
		}
		if k != p.Kind {
			t.Fatalf("region %d, %s: loaded %v, priced %v", ri, module, k, p.Kind)
		}
		want = append(want, trace.Event{Kind: trace.KindPlan, Member: 3, Region: int32(ri),
			Name: module + " " + p.Kind.String(), Bytes: int64(p.Bytes)})
	}
	execute := func(ri int, module string) func() (plan.StreamKind, error) {
		return func() (plan.StreamKind, error) {
			r, err := s.ExecuteOn(ri, module, func() error { return nil })
			return r.Kind, err
		}
	}
	expect(0, "fade", execute(0, "fade"))
	expect(0, "fade", execute(0, "fade"))
	expect(1, "jenkins", func() (plan.StreamKind, error) {
		r, err := s.LoadModuleOn(1, "jenkins", nil)
		return r.Kind, err
	})
	expect(1, "fade", func() (plan.StreamKind, error) {
		tk, err := s.BeginExecuteOn(1, "fade")
		if err != nil {
			return plan.StreamNone, err
		}
		_, err = s.FinishExecuteOn(tk, func() error { return nil })
		return tk.Plan().Kind, err
	})
	var got []trace.Event
	for _, e := range tr.Events() {
		if e.Kind == trace.KindPlan {
			e.Ts = 0
			got = append(got, e)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("plan events\n%+v\nwant one per executed stream\n%+v", got, want)
	}
	if want[1].Name != "fade none" {
		t.Errorf("a warm ExecuteOn planned %q, want the no-op plan", want[1].Name)
	}
}

// TestAdvanceToIdlesForward: an idle board's clock moves forward to a
// later time and never back, and the requests it serves after the wait
// start there and take exactly the time they take on a board that never
// waited.
func TestAdvanceToIdlesForward(t *testing.T) {
	waited, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	const wait = sim.Millisecond
	at := fresh.Now() + wait
	waited.AdvanceTo(at)
	waited.AdvanceTo(at - sim.Microsecond)
	if waited.Now() != at {
		t.Fatalf("clock at %v after advancing to %v and back", waited.Now(), at)
	}
	for i, mod := range []string{"fade", "fade", "blend"} {
		work := func(s *System) func() error { return func() error { s.CPU.Op(100); return nil } }
		a, err := waited.ExecuteOn(0, mod, work(waited))
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.ExecuteOn(0, mod, work(fresh))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && a.At != at {
			t.Fatalf("first request after the wait starts at %v, want %v", a.At, at)
		}
		if a.At-b.At != wait || a.Config != b.Config || a.Work != b.Work || a.BytesStreamed != b.BytesStreamed {
			t.Fatalf("%s after the wait: %+v; without it: %+v", mod, a, b)
		}
	}
}

// TestExecuteSerializes drives one system from many goroutines; the lock
// must serialize the simulated activity (run with -race).
func TestExecuteSerializes(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	mods := []string{"fade", "brightness", "blend", "passthrough"}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.ExecuteOn(0, mods[i%len(mods)], func() error {
				_ = s.ResidentOn // no nested ResidentOn: the lock is held
				s.CPU.Op(100)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if s.Mgr.Corrupted() {
		t.Fatal("static design corrupted by serialized executes")
	}
}

// TestStatusRowsConserveLoads drives every kind of load — complete,
// differential, compressed, DMA and one aborted speculative stream — on
// both regions of a dual-region board and checks each status row against
// what was issued: every row conserves its loads, counts each kind as
// issued and counts the DMA loads. A naive load on either region then
// reads as a corrupted board.
func TestStatusRowsConserveLoads(t *testing.T) {
	s, err := NewSys64N(2)
	if err != nil {
		t.Fatal(err)
	}
	issued := make([]map[plan.StreamKind]uint64, s.NumRegions())
	dma := make([]uint64, s.NumRegions())
	for ri := range issued {
		issued[ri] = make(map[plan.StreamKind]uint64)
	}
	load := func(ri int, module string) {
		t.Helper()
		rep, err := s.LoadModuleOn(ri, module, nil)
		if err != nil {
			t.Fatalf("region %d, %s: %v", ri, module, err)
		}
		issued[ri][rep.Kind]++
	}
	loadDMA := func(ri int, module string) {
		t.Helper()
		tk, err := s.BeginExecuteOn(ri, module)
		if err != nil {
			t.Fatalf("region %d, dma %s: %v", ri, module, err)
		}
		if _, err := s.FinishExecuteOn(tk, func() error { return nil }); err != nil {
			t.Fatalf("region %d, dma %s: %v", ri, module, err)
		}
		issued[ri][tk.Plan().Kind]++
		dma[ri]++
	}

	s.SetPlanning(false)
	for ri := range issued {
		load(ri, "fade")
	}
	s.SetPlanning(true)
	for ri := range issued {
		load(ri, "brightness")
	}
	s.SetCompression(true)
	for ri := range issued {
		load(ri, "blend")
		loadDMA(ri, "jenkins")
		loadDMA(ri, "fade")
	}
	var polls atomic.Int64
	if rep, err := s.LoadModuleOn(1, "brightness", func() bool { return polls.Add(1) > 2 }); !errors.Is(err, core.ErrAborted) || !rep.Aborted {
		t.Fatalf("speculative load returned (%+v, %v), want an abort", rep, err)
	}
	loadDMA(1, "blend")

	st := s.Status()
	if st.Corrupted {
		t.Fatal("BitLinker-assembled loads corrupted the static design")
	}
	for ri, r := range st.Regions {
		want := issued[ri]
		for _, k := range []plan.StreamKind{plan.StreamComplete, plan.StreamDifferential, plan.StreamCompressed} {
			if want[k] == 0 {
				t.Errorf("region %s: the drive issued no %v load", r.Region, k)
			}
		}
		if r.Loads != r.CompleteLoads+r.DiffLoads+r.CompressedLoads+r.AbortedLoads {
			t.Errorf("region %s: counters %+v do not conserve loads", r.Region, r.Counters)
		}
		if r.CompleteLoads != want[plan.StreamComplete] || r.DiffLoads != want[plan.StreamDifferential] ||
			r.CompressedLoads != want[plan.StreamCompressed] {
			t.Errorf("region %s: counters %+v, issued %v", r.Region, r.Counters, want)
		}
		if r.DMALoads != dma[ri] {
			t.Errorf("region %s: %d DMA loads counted, %d issued", r.Region, r.DMALoads, dma[ri])
		}
	}
	if st.Regions[0].AbortedLoads != 0 || st.Regions[1].AbortedLoads != 1 {
		t.Errorf("aborted loads (%d, %d), want (0, 1)", st.Regions[0].AbortedLoads, st.Regions[1].AbortedLoads)
	}

	for ri := 0; ri < 2; ri++ {
		b, err := NewSys64N(2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.regions[ri].mgr.LoadNaive("fade"); err != nil {
			t.Fatal(err)
		}
		if !b.Status().Corrupted {
			t.Errorf("a naive load on region %d left the board uncorrupted", ri)
		}
	}
}
