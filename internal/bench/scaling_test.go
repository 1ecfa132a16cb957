package bench

import (
	"runtime"
	"testing"

	"repro/internal/pool"
)

// scalingTestSuite shrinks the committed S6 sweep to test size while
// keeping its invariants: same module, policy, process and service
// calibration, smaller pool, trace and sweep.
func scalingTestSuite(n int, cfg pool.Config, shards []int, rhos []float64) Suite {
	s := ScalingSuite()
	s.Workload.N = n
	s.Cases = scalingCases(cfg, shards, rhos)
	return s
}

// TestScalingRunAllHit pins the capacity-drive invariant the S6 gate
// rests on: with the module pre-warmed into every slot, the open-loop
// drive is all-hit — zero request-path configuration time and zero
// streamed bytes — so those two fields gate deterministically in
// BENCH_sched.json while the throughput fields stay informational.
func TestScalingRunAllHit(t *testing.T) {
	s := scalingTestSuite(240, pool.Config{Sys32: 4}, []int{2}, []float64{1})
	run, err := Drive(s.Workload, s.Cases[0])
	if err != nil {
		t.Fatal(err)
	}
	st := run.Stats
	if st.Done != uint64(s.Workload.N) || st.Errors != 0 {
		t.Fatalf("done/errors = %d/%d, want %d/0", st.Done, st.Errors, s.Workload.N)
	}
	if st.Hits != st.Done || st.Misses != 0 {
		t.Fatalf("hits/misses = %d/%d, want all-hit %d/0 (pre-warm failed)", st.Hits, st.Misses, st.Done)
	}
	if st.Config != 0 || st.BytesStreamed != 0 {
		t.Fatalf("config=%v bytes=%d, want 0/0: the S6 gate pins these at zero", st.Config, st.BytesStreamed)
	}
	if pct := run.Pct(0.50, 0.95, 0.99); pct[0] <= 0 || pct[1] < pct[0] || pct[2] < pct[1] {
		t.Fatalf("sojourn percentiles p50/p95/p99 = %v, want positive and ordered", pct)
	}
	if run.Makespan <= 0 || run.Elapsed <= 0 {
		t.Fatalf("makespan=%v elapsed=%v, want positive", run.Makespan, run.Elapsed)
	}
	if run.RealThroughput() <= 0 || run.SimThroughput() <= 0 {
		t.Fatalf("throughputs %f/%f, want positive", run.RealThroughput(), run.SimThroughput())
	}
}

// TestScalingRecordsAndTable checks the S6 rows: the all-hit zeros of
// config_ms and bytes_streamed, which gate on benchdiff's absolute
// epsilon, with the informational shard, throughput and percentile
// fields filled — and the speedup pair the table note cites.
func TestScalingRecordsAndTable(t *testing.T) {
	s := scalingTestSuite(120, pool.Config{Sys32: 4}, []int{1, 2}, []float64{1})
	runs, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range s.Rows(runs) {
		if row.ConfigMs != 0 || row.BytesStreamed != 0 {
			t.Fatalf("row %d config_ms=%v bytes=%d, want the all-hit zeros", i, row.ConfigMs, row.BytesStreamed)
		}
		if row.Shards != runs[i].Shards || row.ThroughputRPS <= 0 || row.P50Ms <= 0 || row.ArrivalProcess != "poisson" {
			t.Fatalf("row %d = %+v, want shards/throughput/percentiles filled", i, row)
		}
	}
	if _, _, _, ok := SaturationSpeedup(runs); !ok {
		t.Fatal("SaturationSpeedup found no comparable pair")
	}
}

// TestScalingSpeedup is the PR's acceptance bar at test scale: on the
// committed 32-board pool at saturating offered load, 8 shards must
// sustain well above the 1-shard dispatch rate. The in-test bar (1.5x) is
// deliberately below the committed table's measured margin (>2.5x at
// N=8000) — the test trace is shorter, so the per-cell noise floor is
// higher — and is waived entirely under the race detector, whose
// instrumentation is the dominant cost on both sides, and on hosts with
// fewer than 4 threads, where 8 shards have no parallelism to use.
func TestScalingSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("saturating sweep: skipped in short mode")
	}
	n, cfg := 2500, capacityPool
	if raceEnabled {
		n, cfg = 600, pool.Config{Sys32: 8}
	}
	runs, err := scalingTestSuite(n, cfg, []int{1, 8}, []float64{4}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Stats.Done != uint64(n) || r.Stats.Misses != 0 {
			t.Fatalf("%s: done=%d misses=%d, want all-hit %d", r.Label, r.Stats.Done, r.Stats.Misses, n)
		}
	}
	sp, lo, hi, ok := SaturationSpeedup(runs)
	if !ok {
		t.Fatal("no comparable shard pair at saturation")
	}
	t.Logf("%d shards %.0f req/s vs %d shard %.0f req/s: %.2fx",
		hi.Shards, hi.RealThroughput(), lo.Shards, lo.RealThroughput(), sp)
	if raceEnabled {
		t.Log("race detector active: speedup bar waived")
		return
	}
	if n := runtime.GOMAXPROCS(0); n < 4 {
		t.Logf("GOMAXPROCS %d < 4: 8 shards cannot outrun 1 on this host, speedup bar waived", n)
		return
	}
	if sp < 1.5 {
		t.Errorf("8-shard speedup %.2fx, want >= 1.5x (committed table margin is >2.5x)", sp)
	}
}
