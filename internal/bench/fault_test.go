package bench

import (
	"reflect"
	"testing"
)

// TestFaultSweepAvailability drives the S7 rate sweep end to end and
// checks its headline shape: the clean scenario injects nothing, the top
// rate injects and detects faults, every detection is repaired, all
// requests complete, and availability never improves as the upset rate
// rises.
func TestFaultSweepAvailability(t *testing.T) {
	if testing.Short() {
		t.Skip("full S7 sweep")
	}
	w := DefaultWorkload()
	scenarios, err := FaultScenarios(w, faultPool, "sweep")
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 4 {
		t.Fatalf("sweep produced %d scenarios, want 4", len(scenarios))
	}
	runs, err := FaultSuite(w, faultPool, scenarios).Run()
	if err != nil {
		t.Fatal(err)
	}
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

// TestFaultRunDeterministic: the same workload and scenario reproduce the
// same stats bit for bit — the property the committed S7 rows and the
// replay artifact depend on.
func TestFaultRunDeterministic(t *testing.T) {
	w := DefaultWorkload()
	w.N = 12
	scs, err := FaultScenarios(w, faultPool, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	c := FaultSuite(w, faultPool, scs).Cases[0]
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
