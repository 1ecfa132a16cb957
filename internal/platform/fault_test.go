package platform_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/plan"
	. "repro/internal/platform"
)

// TestDualRegionFaultScrubDemotesOnlyThatRegion is the fault-injection
// mirror of TestDualRegionAbortDemotesOnlyThatRegion: a bit flipped in
// region 1's band is detected by region 1's readback scrub and demotes
// only that region — the sibling's resident stays authoritative and the
// static design undisturbed, region 1's next load is forced onto a
// complete stream, and that reload heals the flip (a second scrub passes
// clean).
func TestDualRegionFaultScrubDemotesOnlyThatRegion(t *testing.T) {
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
	frames, words := s.FaultSpaceOn(1)
	if frames <= 0 || words <= 0 {
		t.Fatalf("fault space (%d frames, %d words), want nonempty", frames, words)
	}
	if err := s.InjectFaultOn(1, frames/2, words/2, 13); err != nil {
		t.Fatal(err)
	}
	// The flip is silent until someone looks: a scrub of the healthy
	// sibling sees nothing.
	if rep := s.ScrubOn(0); rep.Detected {
		t.Fatalf("scrub of untouched region 0 detected corruption: %+v", rep)
	}
	rep := s.ScrubOn(1)
	if !rep.Detected || rep.Module != "fade" {
		t.Fatalf("scrub of faulted region 1 reports %+v, want detection of fade", rep)
	}
	if got := s.Status().Regions[1].Resident; got != "" {
		t.Fatalf("faulted region 1 reports resident %q, want none", got)
	}
	if got := s.Status().Regions[0].Resident; got != "jenkins" {
		t.Fatalf("sibling region 0 demoted to %q by region 1's fault", got)
	}
	// Region 0 still plans differentials; region 1 is hazard-gated.
	p0, err := s.PlanForOn(0, "blend")
	if err != nil {
		t.Fatal(err)
	}
	if p0.Kind != plan.StreamDifferential {
		t.Errorf("region 0 plans %v after sibling fault, want differential", p0.Kind)
	}
	p1, err := s.PlanForOn(1, "fade")
	if err != nil {
		t.Fatal(err)
	}
	if p1.Kind != plan.StreamComplete {
		t.Errorf("faulted region 1 plans %v, want complete (hazard gate)", p1.Kind)
	}
	// The complete reload overwrites every span frame: authority restored,
	// flip healed, scrub clean again.
	if _, err := s.LoadModuleOn(1, "fade", nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Status().Regions[1].Resident; got != "fade" {
		t.Fatalf("region 1 resident %q after repair, want fade", got)
	}
	if rep := s.ScrubOn(1); rep.Detected {
		t.Fatalf("scrub after complete reload still detects corruption: %+v", rep)
	}
	status := s.Status()
	if status.Corrupted {
		t.Fatal("static design corrupted: the fault escaped the region band")
	}
	st := status.Regions
	if st[1].ScrubFaults != 1 || st[1].FaultsInjected != 1 {
		t.Errorf("region 1 counters %+v, want 1 scrub fault / 1 injection", st[1])
	}
	if st[0].ScrubFaults != 0 || st[0].FaultsInjected != 0 {
		t.Errorf("region 0 counters moved by sibling fault: %+v", st[0])
	}
}

// TestScrubAfterAbortDoesNotDoubleDemote pins the scrub/abort interaction:
// a scrub issued while the region's abortable speculative stream is in
// flight serializes behind it on the system lock, and when the stream was
// aborted (state already demoted, no verified content to compare) the
// scrub must not report a second loss — recovery still works exactly as
// for a plain abort.
func TestScrubAfterAbortDoesNotDoubleDemote(t *testing.T) {
	s, err := NewSys64N(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadModuleOn(1, "fade", nil); err != nil {
		t.Fatal(err)
	}
	// Fire the scrub from a second goroutine while the speculative stream
	// holds the system lock; -race covers the interleaving.
	scrubbed := make(chan ScrubReport, 1)
	var polls atomic.Int64
	go func() { scrubbed <- s.ScrubOn(1) }()
	rep, err := s.LoadModuleOn(1, "blend", func() bool {
		return polls.Add(1) > 2
	})
	if !errors.Is(err, core.ErrAborted) || !rep.Aborted {
		t.Fatalf("speculative load returned (%+v, %v), want abort", rep, err)
	}
	first := <-scrubbed
	// The concurrent scrub ran either before the stream started (clean
	// verified state) or after the abort (demoted, not re-scrubbable) —
	// in neither case is there a detection to report.
	if first.Detected {
		t.Fatalf("scrub racing an aborted speculative stream reported a fault: %+v", first)
	}
	// And scrubbing the demoted region again stays a no-op: one abort,
	// zero scrub faults, no double demotion.
	if rep := s.ScrubOn(1); rep.Detected {
		t.Fatalf("scrub of already-demoted region detected: %+v", rep)
	}
	st := s.Status().Regions
	if st[1].AbortedLoads != 1 || st[1].ScrubFaults != 0 {
		t.Errorf("region 1 counters %+v, want 1 aborted load / 0 scrub faults", st[1])
	}
	if _, err := s.LoadModuleOn(1, "blend", nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Status().Regions[1].Resident; got != "blend" {
		t.Fatalf("region 1 resident %q after recovery, want blend", got)
	}
	if rep := s.ScrubOn(1); rep.Detected {
		t.Fatal("clean recovered region still reads corrupted")
	}
}
