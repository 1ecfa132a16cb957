package sched

import (
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/tasks"
)

// quiesce waits until the scheduler has fully settled, so sequential
// tests can observe prefetch outcomes deterministically.
func quiesce(t testing.TB, s *Scheduler) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !s.Drained() {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler never drained: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPrefetchDisabledByDefault: without Options.Prefetch the scheduler
// never touches a member speculatively.
func TestPrefetchDisabledByDefault(t *testing.T) {
	s := New(pool32(t, 2), Options{})
	if r := <-s.Submit(tasks.FadeRun{Seed: 1, N: 256, F: 10}); r.Err != nil {
		t.Fatal(r.Err)
	}
	s.Wait()
	st := s.Stats()
	if st.PrefetchIssued != 0 || st.PrefetchBytes != 0 || st.HiddenConfig != 0 {
		t.Fatalf("prefetch activity without Prefetch enabled: %+v", st)
	}
}

// TestPrefetchHidesConfigOnLearnedCycle trains the markov predictor on a
// strict fade → brightness → blend rotation driven closed-loop over only
// two members: the three modules cannot all stay resident, so without
// prefetch every third request would reconfigure on the request path. Once
// the transition rows are warm, each next request must find its module
// already configured (or arriving) on the idle member and execute with
// zero visible configuration time.
func TestPrefetchHidesConfigOnLearnedCycle(t *testing.T) {
	pred, err := predict.New("markov")
	if err != nil {
		t.Fatal(err)
	}
	s := New(pool32(t, 2), Options{Prefetch: true, Predictor: pred})
	mk := func(i int) tasks.Runner {
		switch i % 3 {
		case 0:
			return tasks.FadeRun{Seed: int64(i), N: 256, F: 50}
		case 1:
			return tasks.BrightnessRun{Seed: int64(i), N: 256, Delta: 5}
		}
		return tasks.BlendRun{Seed: int64(i), N: 256}
	}
	const rounds = 33
	var warmHits int
	for i := 0; i < rounds; i++ {
		quiesce(t, s) // let any speculative stream finish before submitting
		r := <-s.Submit(mk(i))
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		// Warmup: the first cycles are cold and each of the three markov
		// rows needs its observations (one per three arrivals) before the
		// predictor trusts it. From round 24 on, every request must be a
		// zero-config hit on the prefetched member.
		if i >= 24 {
			if !r.Report.CacheHit || r.Report.Config != 0 {
				t.Errorf("round %d: report %+v, want prefetched zero-config hit", i, r.Report)
			} else {
				warmHits++
			}
		}
	}
	s.Wait()
	st := s.Stats()
	if st.PrefetchIssued == 0 || st.PrefetchHits == 0 {
		t.Fatalf("no prefetch activity recorded: %+v", st)
	}
	if warmHits == 0 {
		t.Fatal("no warm rounds hit")
	}
	if st.HiddenConfig == 0 {
		t.Fatalf("prefetch hits hid no configuration time: %+v", st)
	}
	if st.PrefetchHits > st.Hits {
		t.Fatalf("prefetch hits %d exceed total hits %d", st.PrefetchHits, st.Hits)
	}
}

// TestPrefetchStressNoHazard is the §2.2 safety stress for the prefetch
// pipeline (run with -race): a seeded mixed workload driven with a small
// submission window over a 2+2 pool, with speculative streams constantly
// being issued, ridden and aborted. Every task self-verifies against its
// oracle, so a single execution against stale speculative state — the
// hazard the gate must make impossible — turns into a hard failure, as
// does any static-design corruption. The cross-layer accounting must
// balance with the speculative traffic included.
func TestPrefetchStressNoHazard(t *testing.T) {
	p, err := pool.New(pool.Config{Sys32: 2, Sys64: 2})
	if err != nil {
		t.Fatal(err)
	}
	mix, err := ParseMix("sha1=1,jenkins=2,patternmatch=1,brightness=2,blend=2,fade=2,transfer=1")
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	w, err := GenWorkload(99, n, mix)
	if err != nil {
		t.Fatal(err)
	}
	policy, _ := PolicyByName("mincost")
	s := New(p, Options{Batch: 3, Policy: policy, Prefetch: true})

	// Closed loop with a window of 2: members regularly go idle while
	// others compute — the overlap the prefetcher exploits.
	s.SubmitWindowed(w, 2, func(r Result) {
		if r.Err != nil {
			t.Fatalf("request %d (%s): %v", r.ID, r.Task, r.Err)
		}
	})
	s.Wait()

	st := s.Stats()
	if st.Done != n || st.Errors != 0 {
		t.Fatalf("stats %+v, want %d clean completions", st, n)
	}
	if st.PrefetchIssued == 0 {
		t.Fatal("stress run issued no speculative loads")
	}
	if st.PrefetchIssued != st.PrefetchCompleted+st.PrefetchAborted {
		t.Fatalf("speculative loads unresolved after Wait: issued %d, completed %d, aborted %d",
			st.PrefetchIssued, st.PrefetchCompleted, st.PrefetchAborted)
	}
	if st.PrefetchWasted > st.PrefetchBytes {
		t.Fatalf("wasted %d B exceeds speculative %d B", st.PrefetchWasted, st.PrefetchBytes)
	}
	// Exact conservation: every speculative byte is consumed, wasted, or
	// still pending — counted once, even across abort-then-retry cycles.
	if st.PrefetchBytes != st.PrefetchConsumed+st.PrefetchWasted+st.PrefetchPending {
		t.Fatalf("speculative bytes unbalanced: streamed %d != consumed %d + wasted %d + pending %d",
			st.PrefetchBytes, st.PrefetchConsumed, st.PrefetchWasted, st.PrefetchPending)
	}
	if st.PrefetchHits > st.Hits {
		t.Fatalf("prefetch hits %d exceed hits %d", st.PrefetchHits, st.Hits)
	}

	// Visible (request-path) accounting still balances...
	var busy sim.Time
	for _, b := range st.BusyTime {
		busy += b
	}
	if busy != st.Config+st.Work {
		t.Errorf("sum of member busy time %v != config %v + work %v", busy, st.Config, st.Work)
	}
	if st.DiffLoads+st.CompleteLoads != st.Misses {
		t.Errorf("diff %d + complete %d loads != misses %d", st.DiffLoads, st.CompleteLoads, st.Misses)
	}
	// ...and the pool's manager counters equal request-path plus
	// speculative traffic: nothing streamed is unaccounted.
	var loads, aborted, bytes uint64
	var loadTime sim.Time
	for _, m := range p.Snapshot() {
		if m.Corrupted {
			t.Fatalf("member %d: static design corrupted", m.ID)
		}
		for _, r := range m.Regions {
			loads += r.Loads
			aborted += r.AbortedLoads
			bytes += r.StreamedBytes
			loadTime += r.LoadTime
		}
	}
	if loads != st.Misses+st.PrefetchLoads {
		t.Errorf("snapshot loads %d != misses %d + speculative streams %d",
			loads, st.Misses, st.PrefetchLoads)
	}
	if aborted > st.PrefetchAborted {
		t.Errorf("snapshot aborted loads %d exceed scheduler count %d", aborted, st.PrefetchAborted)
	}
	if bytes != st.BytesStreamed+st.PrefetchBytes {
		t.Errorf("snapshot streamed bytes %d != visible %d + speculative %d",
			bytes, st.BytesStreamed, st.PrefetchBytes)
	}
	if loadTime != st.Config+st.PrefetchConfig {
		t.Errorf("snapshot config time %v != visible %v + speculative %v",
			loadTime, st.Config, st.PrefetchConfig)
	}
}
