package core

import (
	"testing"

	"repro/internal/bitstream"
	"repro/internal/hw"
	"repro/internal/plan"
)

// TestScrubDetectsInjectedFault drives the manager-level fault loop: a
// clean region scrubs clean, an injected bit-flip is caught by the next
// readback pass (demoting the resident state), and the forced complete
// reload both restores authority and heals the flip.
func TestScrubDetectsInjectedFault(t *testing.T) {
	mgr, _, region, _ := rig(t)
	if err := register(mgr, testComponent("alpha", region), func() hw.Core { return &testCore{id: 1} }); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.LoadPlanned(completePlan("alpha")); err != nil {
		t.Fatal(err)
	}
	if detected, _ := mgr.Scrub(); detected {
		t.Fatal("clean region scrubbed dirty")
	}
	frames, words := mgr.FaultSpace()
	if frames <= 0 || words <= 0 {
		t.Fatalf("fault space (%d, %d), want nonempty", frames, words)
	}
	if err := mgr.InjectFault(frames-1, words-1, 31); err != nil {
		t.Fatal(err)
	}
	// The flip is invisible to everything but readback until then.
	if cur, ok := mgr.ResidentState(); !ok || cur != "alpha" {
		t.Fatalf("resident state (%q, %v) moved by silent fault", cur, ok)
	}
	detected, module := mgr.Scrub()
	if !detected || module != "alpha" {
		t.Fatalf("scrub returned (%v, %q), want detection of alpha", detected, module)
	}
	if _, ok := mgr.ResidentState(); ok {
		t.Fatal("resident state still authoritative after detection")
	}
	// A second scrub of the demoted region must not report a second loss.
	if detected, _ := mgr.Scrub(); detected {
		t.Fatal("second scrub double-demoted the region")
	}
	// Repair: reloading the lost module streams complete (the planner
	// plans no free reload on non-authoritative state) and heals.
	resident, ok := mgr.ResidentState()
	p, err := plan.New(mgr).Plan(resident, ok, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	d, err := mgr.LoadPlanned(p)
	if err != nil {
		t.Fatal(err)
	}
	if d == 0 {
		t.Fatal("repair load cost no time: the demoted region took the resident shortcut")
	}
	if cur, ok := mgr.ResidentState(); !ok || cur != "alpha" {
		t.Fatalf("resident state (%q, %v) after repair, want authoritative alpha", cur, ok)
	}
	if detected, _ := mgr.Scrub(); detected {
		t.Fatal("scrub detects corruption after the healing reload")
	}
	if mgr.Corrupted() {
		t.Fatal("static design corrupted: injection escaped the region band")
	}
	c := mgr.Counters()
	if c.ScrubPasses != 4 || c.ScrubFaults != 1 {
		t.Errorf("scrub counters (%d passes, %d faults), want (4, 1)", c.ScrubPasses, c.ScrubFaults)
	}
	if c.FaultsInjected != 1 {
		t.Errorf("faults injected = %d, want 1", c.FaultsInjected)
	}
}

// TestInjectFaultRejectsOutOfBand: coordinates outside the region's span
// frames or row band are refused — a flip outside the band would damage
// static frame content, which is sticky corruption, not a recoverable
// region fault.
func TestInjectFaultRejectsOutOfBand(t *testing.T) {
	mgr, _, _, _ := rig(t)
	frames, words := mgr.FaultSpace()
	cases := []struct {
		name        string
		frame, word int
		bit         uint
	}{
		{"frame past spans", frames, 0, 0},
		{"negative frame", -1, 0, 0},
		{"word past band", 0, words, 0},
		{"negative word", 0, -1, 0},
		{"bit past word", 0, 0, 32},
	}
	for _, tc := range cases {
		if err := mgr.InjectFault(tc.frame, tc.word, tc.bit); err == nil {
			t.Errorf("%s: injection accepted", tc.name)
		}
	}
	if n := mgr.Counters().FaultsInjected; n != 0 {
		t.Errorf("rejected injections counted: %d", n)
	}
}

// TestScrubCatchesCRC16BlindDoubleUpset: two single-bit upsets that cancel
// in a CRC16 over the region's span frames (the CRC is linear, so the pair
// is blind whatever the region holds) must still be caught: the scrub
// compares the region's content hash with the one rebind verified, and a
// readback CRC16 must not come back.
func TestScrubCatchesCRC16BlindDoubleUpset(t *testing.T) {
	mgr, cm, region, _ := rig(t)
	if err := register(mgr, testComponent("alpha", region), func() hw.Core { return &testCore{id: 1} }); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.LoadPlanned(completePlan("alpha")); err != nil {
		t.Fatal(err)
	}
	spanCRC := func() uint16 {
		var crc uint16
		for _, sp := range mgr.spans {
			for fi := sp.Lo; fi < sp.Hi; fi++ {
				far, err := cm.Device().FARAt(fi)
				if err != nil {
					t.Fatal(err)
				}
				f, err := cm.ReadFrame(far)
				if err != nil {
					t.Fatal(err)
				}
				crc = bitstream.FrameCRC(crc, f)
			}
		}
		return crc
	}
	before := spanCRC()
	if err := mgr.InjectFault(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := mgr.InjectFault(96, 3, 0); err != nil {
		t.Fatal(err)
	}
	if after := spanCRC(); after != before {
		t.Fatalf("span CRC16 %#04x -> %#04x: the flip pair is no longer CRC16-blind", before, after)
	}
	if detected, module := mgr.Scrub(); !detected || module != "alpha" {
		t.Fatalf("scrub returned (%v, %q), want detection of alpha", detected, module)
	}
}
