package platform_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	. "repro/internal/platform"
	"repro/internal/tasks"
)

// TestDualRegionBuild: the 64-bit system splits its dynamic area into two
// independently reconfigurable regions, each with its own dock window and
// interrupt line, and every module that fits the half-width band registers
// on both.
func TestDualRegionBuild(t *testing.T) {
	s, err := NewSys64N(2)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRegions() != 2 {
		t.Fatalf("NumRegions = %d, want 2", s.NumRegions())
	}
	if s.Name != "sys64x2" {
		t.Errorf("name %q, want sys64x2", s.Name)
	}
	a, b := s.RegionAt(0), s.RegionAt(1)
	if a.W != b.W || a.H != b.H {
		t.Fatalf("split regions differ in geometry: %v vs %v", a, b)
	}
	if a.Col0+a.W >= b.Col0 {
		t.Fatalf("regions share or abut columns: %v vs %v (no static dock gap)", a, b)
	}
	for ri := 0; ri < 2; ri++ {
		for _, mod := range []string{"sha1", "jenkins", "brightness", "blend", "fade", "patternmatch"} {
			if !s.SupportsOn(ri, mod) {
				t.Errorf("region %d does not support %s", ri, mod)
			}
		}
	}
}

// TestDualRegionIndependentResidents: loading a module into one region
// must not disturb the sibling's authoritative resident state, binding or
// load counters — the per-region slice of the §2.2 tracking.
func TestDualRegionIndependentResidents(t *testing.T) {
	s, err := NewSys64N(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadModuleOn(0, "jenkins", nil); err != nil {
		t.Fatal(err)
	}
	st0 := s.Status().Regions
	if _, err := s.LoadModuleOn(1, "fade", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadModuleOn(1, "brightness", nil); err != nil {
		t.Fatal(err)
	}
	status := s.Status()
	st := status.Regions
	if st[0].Resident != "jenkins" || st[1].Resident != "brightness" {
		t.Fatalf("residents (%q, %q), want (jenkins, brightness)", st[0].Resident, st[1].Resident)
	}
	if st[0].Loads != st0[0].Loads {
		t.Errorf("sibling loads moved region 0's counter: %d -> %d", st0[0].Loads, st[0].Loads)
	}
	if status.Corrupted {
		t.Fatal("static design corrupted by dual-region loads")
	}
	// Both region 1 loads plan differentials against its own verified
	// state (blank baseline, then fade) — the per-region planner at work.
	if st[1].DiffLoads != 2 || st[1].CompleteLoads != 0 {
		t.Errorf("region 1 loads: %d complete / %d diff, want 0 / 2",
			st[1].CompleteLoads, st[1].DiffLoads)
	}
}

// TestDualRegionExecuteBothDocks runs self-verifying tasks on both regions
// of one device: each execution must address its own dock (the active
// region's window and IRQ line) and compute correct results.
func TestDualRegionExecuteBothDocks(t *testing.T) {
	s, err := NewSys64N(2)
	if err != nil {
		t.Fatal(err)
	}
	jk := tasks.JenkinsRun{Seed: 7, Len: 512, InitVal: 3}
	if rep, err := s.ExecuteOn(0, jk.Module(), func() error { return jk.Run(s) }); err != nil {
		t.Fatalf("region 0 jenkins: %v (report %+v)", err, rep)
	}
	fd := tasks.FadeRun{Seed: 9, N: 512, F: 77}
	if rep, err := s.ExecuteOn(1, fd.Module(), func() error { return fd.Run(s) }); err != nil {
		t.Fatalf("region 1 fade: %v (report %+v)", err, rep)
	} else if rep.Region != s.RegionAt(1).Name {
		t.Errorf("report region %q, want %q", rep.Region, s.RegionAt(1).Name)
	}
	// Both residents survive both executions: the device now holds two
	// warm configurations, which a single-region system cannot.
	hit, err := s.ExecuteOn(0, jk.Module(), func() error { return jk.Run(s) })
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.Kind != plan.StreamNone {
		t.Errorf("second jenkins on region 0: %+v, want zero-stream cache hit", hit)
	}
	// A DMA-driven task on region 1 must use region 1's interrupt line.
	tr := tasks.TransferRun{Kind: tasks.TransferWrite, Words: 128}
	if _, err := s.ExecuteOn(1, tr.Module(), func() error { return tr.Run(s) }); err != nil {
		t.Fatalf("region 1 transfer: %v", err)
	}
}

// TestDualRegionAbortDemotesOnlyThatRegion aborts a speculative stream
// into region 1 and checks that the hazard gate demotes only region 1 —
// region 0's authoritative resident keeps planning differentials, while
// region 1's next load is forced onto a complete stream.
func TestDualRegionAbortDemotesOnlyThatRegion(t *testing.T) {
	s, err := NewSys64N(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadModuleOn(0, "jenkins", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadModuleOn(1, "fade", nil); err != nil {
		t.Fatal(err)
	}
	var polls atomic.Int64
	rep, err := s.LoadModuleOn(1, "blend", func() bool {
		return polls.Add(1) > 2 // park a few chunks in
	})
	if !errors.Is(err, core.ErrAborted) || !rep.Aborted {
		t.Fatalf("speculative load returned (%+v, %v), want abort", rep, err)
	}
	if got := s.ResidentOn(1); got != "" {
		t.Fatalf("aborted region 1 reports resident %q, want none", got)
	}
	if got := s.ResidentOn(0); got != "jenkins" {
		t.Fatalf("sibling region 0 demoted to %q by region 1's abort", got)
	}
	p0, err := s.PlanForOn(0, "blend")
	if err != nil {
		t.Fatal(err)
	}
	if p0.Kind != plan.StreamDifferential {
		t.Errorf("region 0 plans %v after sibling abort, want differential", p0.Kind)
	}
	p1, err := s.PlanForOn(1, "blend")
	if err != nil {
		t.Fatal(err)
	}
	if p1.Kind != plan.StreamComplete {
		t.Errorf("aborted region 1 plans %v, want complete (hazard gate)", p1.Kind)
	}
	// Recovery on region 1 streams complete and restores authority.
	if _, err := s.LoadModuleOn(1, "blend", nil); err != nil {
		t.Fatal(err)
	}
	if got := s.ResidentOn(1); got != "blend" {
		t.Fatalf("region 1 resident %q after recovery, want blend", got)
	}
	if s.Status().Corrupted {
		t.Fatal("static design corrupted")
	}
}

// TestSingleRegionUnchanged: the n=1 constructors must behave exactly like
// the paper builds — same region geometry, same stream sizes.
func TestSingleRegionUnchanged(t *testing.T) {
	a, err := NewSys64()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSys64N(1)
	if err != nil {
		t.Fatal(err)
	}
	if a.RegionAt(0) != b.RegionAt(0) || a.Name != b.Name || a.NumRegions() != 1 || b.NumRegions() != 1 {
		t.Fatalf("n=1 build differs: %v vs %v", a.RegionAt(0), b.RegionAt(0))
	}
	for _, mod := range []string{"sha1", "jenkins", "brightness"} {
		sa, _, err := a.Mgr.CompleteSize(mod)
		if err != nil {
			t.Fatal(err)
		}
		sb, _, err := b.Mgr.CompleteSize(mod)
		if err != nil {
			t.Fatal(err)
		}
		if sa != sb {
			t.Errorf("%s complete stream: %d B vs %d B", mod, sa, sb)
		}
	}
}
