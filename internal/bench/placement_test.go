package bench

import "testing"

// TestPlannerBeatsCompleteOnlyBaseline is the acceptance criterion of the
// transition-aware refactor: on the seeded 60-request mixed workload, the
// planner with cost-aware placement strictly reduces both total simulated
// configuration time and configuration bytes streamed versus the PR 1
// baseline (lru placement, complete streams only).
func TestPlannerBeatsCompleteOnlyBaseline(t *testing.T) {
	runs, err := PlacementSuite(DefaultWorkload()).Run()
	if err != nil {
		t.Fatal(err)
	}
	base := runs[0] // lru + complete-only
	if base.Stats.DiffLoads != 0 {
		t.Fatalf("baseline issued %d differential loads, want 0", base.Stats.DiffLoads)
	}
	for _, r := range runs[1:] {
		st, bst := r.Stats, base.Stats
		if st.Done != bst.Done || st.Errors != 0 {
			t.Fatalf("%s: %d done %d errors, want %d clean", r.Label, st.Done, st.Errors, bst.Done)
		}
		if st.Config >= bst.Config {
			t.Errorf("%s config time %v not below baseline %v", r.Label, st.Config, bst.Config)
		}
		if st.BytesStreamed >= bst.BytesStreamed {
			t.Errorf("%s streamed %d B, not below baseline %d B", r.Label, st.BytesStreamed, bst.BytesStreamed)
		}
		if st.CompleteLoads != 0 {
			t.Errorf("%s paid %d complete streams; every miss should plan a differential on this workload",
				r.Label, st.CompleteLoads)
		}
	}
}
