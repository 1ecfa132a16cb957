package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// faultSweep drives the full S7 rate sweep on the committed workload; -short
// skips it.
func faultSweep(t *testing.T) (Workload, Suite, []Run) {
	t.Helper()
	if testing.Short() {
		t.Skip("full S7 sweep")
	}
	w := DefaultWorkload()
	s, err := FaultSuite(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cases) != 4 {
		t.Fatalf("sweep produced %d scenarios, want 4", len(s.Cases))
	}
	runs, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return w, s, runs
}

// TestFaultSweepAvailability drives the S7 rate sweep end to end and
// checks its headline shape: the clean scenario injects nothing, the top
// rate injects and detects faults, every detection is repaired, all
// requests complete, and availability never improves as the upset rate
// rises.
func TestFaultSweepAvailability(t *testing.T) {
	w, _, runs := faultSweep(t)
	for i, r := range runs {
		st := r.Stats
		if st.Done != uint64(w.N) || st.Errors != 0 {
			t.Fatalf("%s: %d done / %d errors, want %d clean completions", r.Fault.Name, st.Done, st.Errors, w.N)
		}
		if st.FaultsDetected != st.Repairs {
			t.Fatalf("%s: %d detected != %d repaired", r.Fault.Name, st.FaultsDetected, st.Repairs)
		}
		if st.PrefetchBytes != st.PrefetchConsumed+st.PrefetchWasted+st.PrefetchPending {
			t.Fatalf("%s: speculative byte conservation broken: %+v", r.Fault.Name, st)
		}
		if a := r.Availability(); a <= 0 || a > 1 {
			t.Fatalf("%s: availability %v outside (0, 1]", r.Fault.Name, a)
		}
		if i > 0 && r.Availability() > runs[i-1].Availability()+1e-9 {
			t.Fatalf("availability improved with upset rate: %s %.4f -> %s %.4f",
				runs[i-1].Fault.Name, runs[i-1].Availability(), r.Fault.Name, r.Availability())
		}
	}
	clean, top := runs[0], runs[len(runs)-1]
	if n := len(clean.Fault.Events); n != 0 || clean.Stats.FaultsDetected != 0 {
		t.Fatalf("rate-0 run injected %d / detected %d", n, clean.Stats.FaultsDetected)
	}
	if len(top.Fault.Events) == 0 || top.Stats.FaultsDetected == 0 {
		t.Fatalf("top-rate run injected %d / detected %d, want fault activity",
			len(top.Fault.Events), top.Stats.FaultsDetected)
	}
	if top.Stats.RepairConfig == 0 || top.Stats.RepairBytes == 0 {
		t.Fatalf("top-rate run repaired for free: %+v", top.Stats)
	}
}

// TestFaultSweepGolden: the sweep's rows must equal the S7 rows of the
// committed BENCH_sched.json, which pins the generated campaign through
// each scenario's injected, detected and repaired counts, repair time and
// availability. A change that moves S7 on purpose refreshes the baseline
// with `make bench`.
func TestFaultSweepGolden(t *testing.T) {
	_, s, runs := faultSweep(t)
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sched.json"))
	if err != nil {
		t.Fatalf("read committed baseline: %v", err)
	}
	committed, err := DecodeRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	var want []Row
	for _, row := range committed {
		if row.Table == "S7" {
			want = append(want, row)
		}
	}
	got := s.Rows(runs)
	if len(got) != len(want) {
		t.Fatalf("%d S7 rows, the committed BENCH_sched.json holds %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("S7 row %d differs from the committed BENCH_sched.json:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestFaultRunDeterministic: the same workload and scenario reproduce the
// same stats bit for bit — the property the committed S7 rows depend on.
func TestFaultRunDeterministic(t *testing.T) {
	w := DefaultWorkload()
	w.N = 12
	s, err := FaultSuite(w)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Cases[len(s.Cases)-1]
	if len(c.Fault.Events) == 0 {
		t.Fatalf("%s injects nothing over %d requests", c.Label, w.N)
	}
	a, err := Drive(w, c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Drive(w, c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same scenario, different outcomes:\n%+v\n%+v", a, b)
	}
}
