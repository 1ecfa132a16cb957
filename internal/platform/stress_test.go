package platform

import (
	"math/rand"
	"testing"

	"repro/internal/dock"
	"repro/internal/icap"
)

// The stress tests exercise the full reconfiguration path under randomized
// schedules and injected faults: after any sequence of loads, the platform
// must either hold a correctly bound module or visibly report the failure —
// never silently compute with a wrong circuit.

// TestCorruptedStreamThroughICAP injects a bit error into a cached stream
// and verifies the full platform path reports it: HWICAP error status, no
// (or broken) binding, and recovery by reloading a good stream.
func TestCorruptedStreamThroughICAP(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadModuleOn(0, "brightness", nil); err != nil {
		t.Fatal(err)
	}
	// Stream a corrupted word directly at the HWICAP: a fresh sync +
	// garbage header makes the configuration logic error out.
	c := s.CPU
	c.SW(AddrICAP+icap.RegWriteFIFO, 0xAA995566)
	c.SW(AddrICAP+icap.RegWriteFIFO, 0xE0000001) // unsupported packet op
	c.SW(AddrICAP+icap.RegWriteFIFO, 0x12345678)
	st := c.LW(AddrICAP + icap.RegStatus)
	if st&icap.StatError == 0 {
		t.Fatal("HWICAP did not report the configuration error")
	}
	// Reset the configuration logic and reload a good module.
	c.SW(AddrICAP+icap.RegControl, icap.CtrlReset)
	if _, err := s.LoadModuleOn(0, "jenkins", nil); err != nil {
		t.Fatalf("recovery load failed: %v", err)
	}
	if s.Mgr.Current() != "jenkins" {
		t.Fatal("recovery did not bind jenkins")
	}
}

// TestRandomModuleSwapSchedule is a property-style stress test: a random
// schedule of complete loads must always bind the requested module, keep
// the static design intact, and leave the dock functional.
func TestRandomModuleSwapSchedule(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	mods := s.Mgr.Modules()
	rng := rand.New(rand.NewSource(2006))
	for i := 0; i < 12; i++ {
		m := mods[rng.Intn(len(mods))]
		if _, err := s.LoadModuleOn(0, m, nil); err != nil {
			t.Fatalf("load %d (%s): %v", i, m, err)
		}
		if s.Mgr.Current() != m {
			t.Fatalf("load %d: bound %q, want %q", i, s.Mgr.Current(), m)
		}
		if s.Mgr.Corrupted() {
			t.Fatalf("load %d corrupted the static design", i)
		}
		st, _ := s.regions[0].dock32.Read(dock.RegStatus, 4)
		if st&dock.StatBound == 0 || st&dock.StatBroken != 0 {
			t.Fatalf("load %d: dock status %#x", i, st)
		}
	}
}

// TestBrokenBindingAfterDifferentialIsDetectable drives the passthrough
// protocol against a broken binding and verifies the garbage is observable
// (the dock status plus wrong data), then recovers.
func TestBrokenBindingAfterDifferentialIsDetectable(t *testing.T) {
	s, err := NewSys64()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadModuleOn(0, "sha1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mgr.LoadDifferential("passthrough", ""); err != nil {
		t.Fatal(err)
	}
	st, _ := s.regions[0].dock64.Read(dock.RegStatus, 4)
	if st&dock.StatBroken == 0 {
		t.Fatal("dock does not flag the broken configuration")
	}
	// The "passthrough" protocol no longer holds.
	s.CPU.SW(s.DockData(), 0x1234)
	if v := s.CPU.LW(s.DockData()); v == 0x1234 {
		t.Fatal("broken core accidentally echoes — garbage model too friendly")
	}
	if _, err := s.LoadModuleOn(0, "passthrough", nil); err != nil {
		t.Fatal(err)
	}
	s.CPU.SW(s.DockData(), 0x1234)
	if v := s.CPU.LW(s.DockData()); v != 0x1234 {
		t.Fatal("recovered passthrough does not echo")
	}
}
