package platform

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
)

// TestSpeculativeLoadThenHit prefetches a module and checks that the next
// request for it is a planned no-op: the configuration time was paid off
// the request path.
func TestSpeculativeLoadThenHit(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.LoadModuleOn(0, "fade", func() bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted || rep.Kind == plan.StreamNone || rep.Bytes == 0 || rep.Time == 0 {
		t.Fatalf("speculative report %+v, want a real stream", rep)
	}
	if got := s.Status().Regions[0].Resident; got != "fade" {
		t.Fatalf("resident %q after speculative load, want fade", got)
	}
	er, err := s.ExecuteOn(0, "fade", func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !er.CacheHit || er.Config != 0 {
		t.Fatalf("execute report %+v, want cache hit with zero config time", er)
	}
}

// TestSpeculativeAbortForcesCompleteReload aborts a speculative stream
// mid-flight and checks the safety chain end to end at the platform layer:
// region 0's Resident stops naming the stale module, the next ExecuteOn streams a
// complete configuration, and the static design stays intact.
func TestSpeculativeAbortForcesCompleteReload(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadModuleOn(0, "fade", nil); err != nil {
		t.Fatal(err)
	}
	// The first two polls are the entry checks of LoadSpeculative and
	// LoadPlannedAbortable; the third is the first in-stream boundary.
	polls := 0
	rep, err := s.LoadModuleOn(0, "blend", func() bool {
		polls++
		return polls >= 3
	})
	if !errors.Is(err, core.ErrAborted) {
		t.Fatalf("err = %v, want core.ErrAborted", err)
	}
	if !rep.Aborted || rep.Bytes <= 0 {
		t.Fatalf("abort report %+v, want partial bytes", rep)
	}
	if got := s.Status().Regions[0].Resident; got != "" {
		t.Fatalf("region 0 resident %q after abort, want \"\" (non-authoritative)", got)
	}
	if n := s.Status().Regions[0].AbortedLoads; n != 1 {
		t.Fatalf("status aborted loads = %d, want 1", n)
	}

	er, err := s.ExecuteOn(0, "blend", func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if er.CacheHit || er.Kind != plan.StreamComplete {
		t.Fatalf("post-abort execute report %+v, want a complete-stream miss", er)
	}
	if s.Status().Regions[0].Resident != "blend" || s.Status().Corrupted {
		t.Fatalf("recovery failed: resident %q corrupted=%v", s.Status().Regions[0].Resident, s.Status().Corrupted)
	}
}

// TestSpeculativeAbortBeforeStartIsFree: a stop that is already set when
// the speculative load acquires the system costs nothing and changes
// nothing.
func TestSpeculativeAbortBeforeStartIsFree(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadModuleOn(0, "fade", nil); err != nil {
		t.Fatal(err)
	}
	rep, err := s.LoadModuleOn(0, "blend", func() bool { return true })
	if !errors.Is(err, core.ErrAborted) {
		t.Fatalf("err = %v, want core.ErrAborted", err)
	}
	if rep.Bytes != 0 || !rep.Aborted {
		t.Fatalf("report %+v, want clean zero-byte abort", rep)
	}
	if got := s.Status().Regions[0].Resident; got != "fade" {
		t.Fatalf("region 0 resident %q, want fade untouched", got)
	}
}

// TestSpeculativeCompressedStream pins the compressed speculative path:
// with compression enabled a speculative load rides the same planner as a
// demand load, so its stream is the compressed container — fewer wire
// bytes for the same hidden configuration — and the restore estimate the
// prefetch profit gate consumes shrinks to the compressed wire size.
func TestSpeculativeCompressedStream(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	plainRestore, err := s.RestoreEstimateOn(0, "fade")
	if err != nil {
		t.Fatal(err)
	}
	s.SetCompression(true)
	zRestore, err := s.RestoreEstimateOn(0, "fade")
	if err != nil {
		t.Fatal(err)
	}
	if zRestore >= plainRestore {
		t.Fatalf("compressed restore estimate %d B, want < plain %d B (profit gate must price wire bytes)",
			zRestore, plainRestore)
	}
	rep, err := s.LoadModuleOn(0, "fade", func() bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != plan.StreamCompressed {
		t.Fatalf("speculative report %+v, want a compressed stream", rep)
	}
	if rep.Bytes != zRestore {
		t.Fatalf("speculative stream %d B, restore estimate priced %d B", rep.Bytes, zRestore)
	}
	er, err := s.ExecuteOn(0, "fade", func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !er.CacheHit || er.Config != 0 {
		t.Fatalf("execute report %+v, want cache hit with zero config time", er)
	}
}

// TestSpeculativeCompressedAbort runs the abort safety chain with
// compression on: the demote-to-non-authoritative discipline is identical
// (Resident clears, the recovery stream is complete-based — here its
// compressed container) and the region recovers uncorrupted.
func TestSpeculativeCompressedAbort(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	s.SetCompression(true)
	if _, err := s.LoadModuleOn(0, "fade", nil); err != nil {
		t.Fatal(err)
	}
	polls := 0
	rep, err := s.LoadModuleOn(0, "blend", func() bool {
		polls++
		return polls >= 3
	})
	if !errors.Is(err, core.ErrAborted) {
		t.Fatalf("err = %v, want core.ErrAborted", err)
	}
	if !rep.Aborted || rep.Bytes <= 0 {
		t.Fatalf("abort report %+v, want partial bytes", rep)
	}
	if got := s.Status().Regions[0].Resident; got != "" {
		t.Fatalf("region 0 resident %q after abort, want \"\" (non-authoritative)", got)
	}
	er, err := s.ExecuteOn(0, "blend", func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if er.CacheHit {
		t.Fatalf("post-abort execute report %+v, want a miss", er)
	}
	if er.Kind != plan.StreamCompressed && er.Kind != plan.StreamComplete {
		t.Fatalf("post-abort stream kind %v, want a complete-based stream", er.Kind)
	}
	if s.Status().Regions[0].Resident != "blend" || s.Status().Corrupted {
		t.Fatalf("recovery failed: resident %q corrupted=%v", s.Status().Regions[0].Resident, s.Status().Corrupted)
	}
}
