package bench

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// reducedSLOSuite keeps the S9 shape (pinned placement, poisson arrivals,
// three offered loads) at a depth a unit test can afford.
func reducedSLOSuite() Suite {
	s := SLOSuite()
	s.Workload.N = 400
	for i := range s.Cases {
		s.Cases[i].Pool = pool.Config{Sys32: 4}
	}
	return s
}

// TestSLORunsDeterministic is the property the whole S9 suite stands on:
// two full evaluations — paced service measurement, arrival generation,
// k-server replay, percentile extraction — produce identical rows, so
// p50/p95/p99 can gate with zero tolerance.
func TestSLORunsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("drives two paced pool workloads")
	}
	s := reducedSLOSuite()
	a, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("S9 rows differ between identical evaluations:\n%+v\n%+v", s.Rows(a), s.Rows(b))
	}
}

// TestSLORunsShape checks the queueing physics of the replay: percentiles
// are ordered within a row, every sojourn is at least a service time, and
// the saturated row's p99 dominates the underloaded row's.
func TestSLORunsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a paced pool workload")
	}
	runs, err := reducedSLOSuite().Run()
	if err != nil {
		t.Fatal(err)
	}
	byRho := map[float64]sim.Time{}
	for _, r := range runs {
		pct := r.Pct(0.50, 0.95, 0.99, 1)
		byRho[r.Rho] = pct[2]
		if pct[0] <= 0 || pct[0] > pct[1] || pct[1] > pct[2] || pct[2] > pct[3] {
			t.Errorf("%s: percentiles not ordered: p50/p95/p99/max %v", r.Label, pct)
		}
		avg := r.Stats.Work / sim.Time(r.Stats.Done)
		if avg <= 0 || pct[0] < avg/2 {
			t.Errorf("%s: p50 %v implausibly below avg service %v", r.Label, pct[0], avg)
		}
		if r.SimThroughput() <= 0 {
			t.Errorf("%s: nonpositive simulated throughput", r.Label)
		}
		// All-hit pinned placement: the service run must never touch the
		// configuration path.
		if r.Stats.Misses != 0 || r.Stats.Config != 0 || r.Stats.BytesStreamed != 0 {
			t.Errorf("%s: pinned service trace paid config: %d misses, %v config, %d B",
				r.Label, r.Stats.Misses, r.Stats.Config, r.Stats.BytesStreamed)
		}
	}
	lo, okLo := byRho[0.25]
	hi, okHi := byRho[4]
	if !okLo || !okHi {
		t.Fatalf("missing committed rho rows: %v", byRho)
	}
	if hi < lo {
		t.Errorf("saturated p99 %v below underloaded p99 %v", hi, lo)
	}
}

// TestOneServerIsReplayArithmetic ties the live open-loop scheduler to the
// replay S9 gates: one single-region board and one submitter in arrival
// order, batch 1, so the board serves the requests first come, first
// served. Arrivals count from the board's clock. With misses in the mix,
// every live sojourn must equal ReplayOpenLoop's one-server sojourn over
// the live latencies exactly.
func TestOneServerIsReplayArithmetic(t *testing.T) {
	mix, err := sched.ParseMix("jenkins=2,brightness=1,fade=1")
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := sched.GenWorkload(7, 60, mix)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pool.New(pool.Config{Sys32: 1})
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := GenArrivals(7, len(reqs), 2*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ready := ReadyTime(p)
	s := sched.New(p, sched.Options{Batch: 1})
	chs := make([]<-chan sched.Result, len(reqs))
	for i, r := range reqs {
		chs[i] = s.SubmitAt(r, ready+arrivals[i])
	}
	lats := make([]sim.Time, len(reqs))
	sojourns := make([]sim.Time, len(reqs))
	for i, ch := range chs {
		r := <-ch
		if r.Err != nil {
			t.Fatalf("request %d (%s): %v", r.ID, r.Task, r.Err)
		}
		lats[i], sojourns[i] = r.Latency(), r.Sojourn
	}
	s.Wait()
	if st := s.Stats(); st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("%d misses, %d hits: the drive needs both", st.Misses, st.Hits)
	}
	want, _ := ReplayOpenLoop(arrivals, lats, 1)
	queued := 0
	for i := range want {
		if sojourns[i] != want[i] {
			t.Errorf("request %d: live sojourn %v, one-server replay %v", i+1, sojourns[i], want[i])
		}
		if sojourns[i] > lats[i] {
			queued++
		}
	}
	if queued == 0 || queued == len(want) {
		t.Fatalf("%d of %d requests queued: the drive needs idle and busy arrivals", queued, len(want))
	}
}

// TestTraceCompressDeterministic records the S8 compressed+dma drive —
// the densest load path: differential streams, compressed containers and
// DMA-overlapped sibling windows — twice and requires byte-identical
// Chrome exports, plus the span-sum conservation laws against the run's
// own Stats: config spans sum to visible config time, overlap spans to
// the hidden DMA window time, compute spans to work.
func TestTraceCompressDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("drives two full pool workloads")
	}
	w := DefaultWorkload()
	w.N = 24
	c := CompressSuite(w).Cases[3] // compressed+dma
	var exports [][]byte
	var last Run
	var lastTr *trace.Tracer
	for i := 0; i < 2; i++ {
		tr := trace.New()
		c.Trace = tr
		run, err := Drive(w, c)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		exports = append(exports, buf.Bytes())
		last, lastTr = run, tr
	}
	if !bytes.Equal(exports[0], exports[1]) {
		t.Fatalf("S8 traced runs differ: %d vs %d bytes", len(exports[0]), len(exports[1]))
	}
	if lastTr.Len() == 0 {
		t.Fatal("traced S8 run emitted no events")
	}

	events := lastTr.Events()
	var config, work, overlap sim.Time
	for member := int32(0); member < int32(last.Boards); member++ {
		for ri := int32(0); ri < 2; ri++ {
			config += trace.SumDur(events, trace.KindConfig, member, ri)
			work += trace.SumDur(events, trace.KindCompute, member, ri)
			overlap += trace.SumDur(events, trace.KindOverlap, member, ri)
		}
	}
	st := last.Stats
	if config != st.Config {
		t.Errorf("config spans sum to %v, Stats.Config %v", config, st.Config)
	}
	if work != st.Work {
		t.Errorf("compute spans sum to %v, Stats.Work %v", work, st.Work)
	}
	if overlap != st.OverlapConfig {
		t.Errorf("overlap spans sum to %v, Stats.OverlapConfig %v", overlap, st.OverlapConfig)
	}
	if st.Config == 0 || st.OverlapConfig == 0 {
		t.Errorf("degenerate DMA drive: config %v overlap %v", st.Config, st.OverlapConfig)
	}
}
