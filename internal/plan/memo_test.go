package plan_test

import (
	"testing"

	"repro/internal/platform"
)

// TestPlanMemoizesSizes: the planner keeps no size tables, so repeated
// planning is cheap only because its Source, the region's manager,
// assembles each (from, to) differential once. Planning the same
// transitions ten times, with compression off and on, and pricing their
// restores must assemble each differential exactly once.
func TestPlanMemoizesSizes(t *testing.T) {
	s, err := platform.NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	transitions := [][2]string{{"", "jenkins"}, {"jenkins", "fade"}, {"fade", "jenkins"}}
	before := s.Status().Regions[0].DiffAssemblies
	for _, compress := range []bool{false, true} {
		s.Planner.SetCompression(compress)
		for i := 0; i < 10; i++ {
			for _, tr := range transitions {
				if _, err := s.Planner.Plan(tr[0], true, tr[1]); err != nil {
					t.Fatalf("plan %q->%q (compression %v): %v", tr[0], tr[1], compress, err)
				}
			}
			if _, err := s.Planner.RestoreBytes("jenkins"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := s.Status().Regions[0].DiffAssemblies - before; n != uint64(len(transitions)) {
		t.Errorf("%d differentials assembled for 60 plans of %d transitions, want %d (memoized)",
			n, len(transitions), len(transitions))
	}
}
