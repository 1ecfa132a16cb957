package plan_test

import (
	"testing"

	"repro/internal/platform"
)

// TestPlanMemoizesSizes: the planner keeps no size tables, so repeated
// planning is cheap only because its Source, the region's manager, reads
// the shape region's transition memo, which assembles each (from, to)
// differential once for every board of the shape. Planning three
// transitions ten times, with compression off and on, and pricing their
// restores assembles each at most once (none if another test warmed the
// shape first); planning them again, on the same board or on a second
// board of the shape, assembles nothing.
func TestPlanMemoizesSizes(t *testing.T) {
	transitions := [][2]string{{"", "jenkins"}, {"jenkins", "fade"}, {"fade", "jenkins"}}
	assemblies := func(s *platform.System) uint64 { return s.Status().Regions[0].DiffAssemblies }
	planAll := func(s *platform.System) {
		t.Helper()
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
	}
	s, err := platform.NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	before := assemblies(s)
	planAll(s)
	warm := assemblies(s)
	if n := warm - before; n > uint64(len(transitions)) {
		t.Errorf("%d differentials assembled for 60 plans of %d transitions, want at most %d (one per pair per shape)",
			n, len(transitions), len(transitions))
	}
	planAll(s)
	if n := assemblies(s) - warm; n != 0 {
		t.Errorf("re-planning assembled %d differentials, want 0", n)
	}
	twin, err := platform.NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	if n := assemblies(twin); n != warm {
		t.Errorf("a second board of the shape counts %d assemblies, the first %d: they do not share the shape's memo", n, warm)
	}
	planAll(twin)
	if n := assemblies(twin) - warm; n != 0 {
		t.Errorf("a second board of the shape assembled %d differentials, want 0", n)
	}
}
