package bench

import (
	"runtime"
	"strings"
	"testing"
)

// scalingTestSpec shrinks the committed S6 sweep to test size while
// keeping its invariants: same module, policy, process and service
// calibration, smaller pool and trace.
func scalingTestSpec() ScalingSpec {
	spec := DefaultScalingSpec()
	spec.Pool.Sys32 = 4
	spec.N = 240
	return spec
}

// TestScalingRunAllHit pins the capacity-drive invariant the S6 gate
// rests on: with the module pre-warmed into every slot, the open-loop
// drive is all-hit — zero request-path configuration time and zero
// streamed bytes — so those two fields gate deterministically in
// BENCH_sched.json while the throughput fields stay informational.
func TestScalingRunAllHit(t *testing.T) {
	spec := scalingTestSpec()
	run, err := RunScaling(spec, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := run.Stats
	if st.Done != uint64(spec.N) || st.Errors != 0 {
		t.Fatalf("done/errors = %d/%d, want %d/0", st.Done, st.Errors, spec.N)
	}
	if st.Hits != st.Done || st.Misses != 0 {
		t.Fatalf("hits/misses = %d/%d, want all-hit %d/0 (pre-warm failed)", st.Hits, st.Misses, st.Done)
	}
	if st.Config != 0 || st.BytesStreamed != 0 {
		t.Fatalf("config=%v bytes=%d, want 0/0: the S6 gate pins these at zero", st.Config, st.BytesStreamed)
	}
	if run.P50 <= 0 || run.P95 < run.P50 || run.P99 < run.P95 {
		t.Fatalf("sojourn percentiles p50=%v p95=%v p99=%v, want positive and ordered", run.P50, run.P95, run.P99)
	}
	if run.Makespan <= 0 || run.Elapsed <= 0 {
		t.Fatalf("makespan=%v elapsed=%v, want positive", run.Makespan, run.Elapsed)
	}
	if run.RealThroughput() <= 0 || run.SimThroughput() <= 0 {
		t.Fatalf("throughputs %f/%f, want positive", run.RealThroughput(), run.SimThroughput())
	}
}

// TestScalingRecordsAndTable checks the S6 emission: records keyed for
// the bench gate (table S6, zero tolerance so the zero baselines gate on
// benchdiff's absolute epsilon) and a rendered table carrying the
// speedup note.
func TestScalingRecordsAndTable(t *testing.T) {
	spec := scalingTestSpec()
	spec.N = 120
	spec.Shards = []int{1, 2}
	spec.Rhos = []float64{1}
	runs, err := ScalingRuns(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
	recs := ScalingRecords(runs)
	for i, rec := range recs {
		if rec.Suite() != "S6" || rec.Label != runs[i].Label {
			t.Fatalf("record %d keyed %s/%s, want S6/%s", i, rec.Suite(), rec.Label, runs[i].Label)
		}
		if rec.TolerancePct != 0 {
			t.Fatalf("record %d tolerance %v, want 0 (zero baselines gate absolutely)", i, rec.TolerancePct)
		}
		if rec.ConfigMs != 0 || rec.BytesStreamed != 0 {
			t.Fatalf("record %d config_ms=%v bytes=%d, want the all-hit zeros", i, rec.ConfigMs, rec.BytesStreamed)
		}
		if rec.Shards != runs[i].Shards || rec.ThroughputRPS <= 0 || rec.P50Ms <= 0 {
			t.Fatalf("record %d = %+v, want shards/throughput/percentiles filled", i, rec)
		}
	}
	tbl := ScalingTable(runs)
	if tbl.ID != "S6" {
		t.Fatalf("table ID %s, want S6", tbl.ID)
	}
	if len(tbl.Rows) != len(runs) {
		t.Fatalf("table carries %d rows, want %d", len(tbl.Rows), len(runs))
	}
	var buf strings.Builder
	tbl.Format(&buf)
	if !strings.Contains(buf.String(), "shards") {
		t.Fatalf("formatted table missing shard column:\n%s", buf.String())
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
	spec := DefaultScalingSpec()
	spec.Shards = []int{1, 8}
	spec.Rhos = []float64{4}
	spec.N = 2500
	if raceEnabled {
		spec.Pool.Sys32 = 8
		spec.N = 600
	}
	runs, err := ScalingRuns(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Stats.Done != uint64(spec.N) || r.Stats.Misses != 0 {
			t.Fatalf("%s: done=%d misses=%d, want all-hit %d", r.Label, r.Stats.Done, r.Stats.Misses, spec.N)
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
