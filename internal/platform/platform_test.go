package platform

import (
	"slices"
	"testing"

	"repro/internal/dock"
	"repro/internal/hw"
	"repro/internal/hwcore"
	"repro/internal/plan"
	"repro/internal/sim"
)

// unfit lists the modules that do not fit region 0.
func unfit(s *System) []string {
	var out []string
	for _, spec := range hwcore.Specs() {
		if !s.SupportsOn(0, spec.Name) {
			out = append(out, spec.Name)
		}
	}
	return out
}

func TestSys32Boot(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	if s.Is64 || s.regions[0].dock32 == nil || s.regions[0].dock64 != nil {
		t.Fatal("sys32 wiring wrong")
	}
	if s.CPU.CacheEnabled() {
		t.Error("sys32 must run with the D-cache off")
	}
	if s.CPUClk.Hz() != 200_000_000 || s.BusClk.Hz() != 50_000_000 {
		t.Error("sys32 clock frequencies do not match §3.1")
	}
	// SHA-1 must be the one module that does not fit.
	if got := unfit(s); !slices.Equal(got, []string{"sha1"}) {
		t.Errorf("unfit = %v, want [sha1]", got)
	}
	if err := s.BudgetCheck(); err != nil {
		t.Error(err)
	}
}

func TestSys64Boot(t *testing.T) {
	s, err := NewSys64()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Is64 || s.regions[0].dock64 == nil || s.regions[0].dock32 != nil || s.INTC == nil {
		t.Fatal("sys64 wiring wrong")
	}
	if !s.CPU.CacheEnabled() {
		t.Error("sys64 must run with the D-cache on")
	}
	if s.CPUClk.Hz() != 300_000_000 || s.BusClk.Hz() != 100_000_000 {
		t.Error("sys64 clock frequencies do not match §4.1")
	}
	if got := unfit(s); len(got) != 0 {
		t.Errorf("unfit on sys64 = %v, want none", got)
	}
	if err := s.BudgetCheck(); err != nil {
		t.Error(err)
	}
}

func TestModuleLoadBindsCore(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	if s.Core() != nil {
		t.Fatal("a core is bound before any configuration")
	}
	s.SetPlanning(false)
	rep, err := s.LoadModuleOn(0, "passthrough", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Time == 0 || rep.Bytes == 0 || rep.Kind != plan.StreamComplete {
		t.Errorf("complete configuration report %+v, want nonzero complete stream", rep)
	}
	if s.Core() == nil || s.Core().Name() != "passthrough" {
		t.Fatalf("bound core = %v", s.Core())
	}
	// Reconfiguration times through the OPB HWICAP are in the
	// millisecond range for a region of this size.
	if rep.Time < sim.Millisecond || rep.Time > 500*sim.Millisecond {
		t.Errorf("config time %v outside the plausible HWICAP range", rep.Time)
	}
	// Loading the same module again is free.
	again, err := s.LoadModuleOn(0, "passthrough", nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Time != 0 || again.Kind != plan.StreamNone {
		t.Errorf("reloading the current module should be a no-op, got %+v", again)
	}
}

// TestPlannedLoadUsesDifferential: with planning on (the default), a module
// swap against an authoritative resident state streams the smaller
// differential configuration, and the first load from the blank baseline is
// a differential against blank — both strictly smaller than the complete
// stream.
func TestPlannedLoadUsesDifferential(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	complete, _, err := s.Mgr.CompleteSize("brightness")
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.LoadModuleOn(0, "brightness", nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Kind != plan.StreamDifferential || first.Bytes >= complete {
		t.Errorf("first load %+v, want differential below the %d B complete stream", first, complete)
	}
	if s.Mgr.Current() != "brightness" {
		t.Fatalf("bound %q after planned load", s.Mgr.Current())
	}
	swap, err := s.LoadModuleOn(0, "blend", nil)
	if err != nil {
		t.Fatal(err)
	}
	if swap.Kind != plan.StreamDifferential || swap.Bytes == 0 {
		t.Errorf("swap %+v, want differential stream", swap)
	}
	if s.Mgr.Current() != "blend" || s.Mgr.Corrupted() {
		t.Fatal("planned differential swap did not bind cleanly")
	}
	// With planning disabled the same swap pays the complete stream.
	s.SetPlanning(false)
	back, err := s.LoadModuleOn(0, "brightness", nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != plan.StreamComplete || back.Bytes != complete {
		t.Errorf("planning off: %+v, want the %d B complete stream", back, complete)
	}
}

func TestDockRoundTripThroughCPU(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadModuleOn(0, "passthrough", nil); err != nil {
		t.Fatal(err)
	}
	s.CPU.SW(s.DockData(), 0xDEAD0001)
	if v := s.CPU.LW(s.DockData()); v != 0xDEAD0001 {
		t.Fatalf("dock echo = %#x", v)
	}
}

func TestModuleSwapRebinds(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadModuleOn(0, "jenkins", nil); err != nil {
		t.Fatal(err)
	}
	if s.Mgr.Current() != "jenkins" {
		t.Fatal("jenkins not current")
	}
	if _, err := s.LoadModuleOn(0, "brightness", nil); err != nil {
		t.Fatal(err)
	}
	if s.Mgr.Current() != "brightness" {
		t.Fatal("brightness not current after swap")
	}
	if s.Mgr.Corrupted() {
		t.Fatal("BitLinker-assembled swaps must never corrupt the static design")
	}
	if c := s.Mgr.Counters(); c.Loads != 2 || c.LoadTime == 0 || c.StreamedBytes == 0 {
		t.Fatalf("manager counters: %+v", c)
	}
}

func TestDifferentialHazardEndToEnd(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	// Load fade (complete). Then load a differential stream for blend that
	// assumes the region is blank — stale fade frames survive and the
	// region binds the broken core.
	if _, err := s.LoadModuleOn(0, "fade", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Mgr.LoadDifferential("blend", ""); err != nil {
		t.Fatal(err)
	}
	if s.Mgr.Current() != "" {
		t.Fatalf("differential config on wrong state bound %q, want broken", s.Mgr.Current())
	}
	st, _ := s.regions[0].dock32.Read(dock.RegStatus, 4)
	if st&dock.StatBroken == 0 {
		t.Fatal("dock does not report a broken configuration")
	}
	if _, broken := s.Core().(*hw.BrokenCore); !broken {
		t.Fatal("core is not the broken model")
	}
	// Recovery: a complete configuration fixes the region.
	if _, err := s.LoadModuleOn(0, "blend", nil); err != nil {
		t.Fatal(err)
	}
	if s.Mgr.Current() != "blend" {
		t.Fatal("recovery load failed")
	}

	// A differential load against the correct assumed state works and is
	// faster than the complete stream.
	dt, err := s.Mgr.LoadDifferential("fade", "blend")
	if err != nil {
		t.Fatal(err)
	}
	if s.Mgr.Current() != "fade" {
		t.Fatal("differential load on correct state did not bind")
	}
	_ = dt
}

func TestNaiveConfigCorruptsStaticDesign(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	if s.Mgr.Corrupted() {
		t.Fatal("corrupted before any load")
	}
	if _, err := s.Mgr.LoadNaive("brightness"); err != nil {
		t.Fatal(err)
	}
	if !s.Mgr.Corrupted() {
		t.Fatal("naive configuration did not corrupt the static design")
	}
}

func TestDifferentialFasterThanComplete(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	s.SetPlanning(false)
	full, err := s.LoadModuleOn(0, "brightness", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Differential from brightness to blend (both small components docked
	// at the right edge; most of the region is blank in both).
	diff, err := s.Mgr.LoadDifferential("blend", "brightness")
	if err != nil {
		t.Fatal(err)
	}
	if s.Mgr.Current() != "blend" {
		t.Fatal("differential load did not bind blend")
	}
	if diff >= full.Time {
		t.Errorf("differential config (%v) not faster than complete (%v)", diff, full.Time)
	}
}

func TestSys64ModuleLoadAndDock(t *testing.T) {
	s, err := NewSys64()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadModuleOn(0, "sha1", nil); err != nil {
		t.Fatalf("sha1 must fit the 64-bit system: %v", err)
	}
	if s.Core().Name() != "sha1" {
		t.Fatal("sha1 not bound")
	}
	if _, err := s.LoadModuleOn(0, "passthrough", nil); err != nil {
		t.Fatal(err)
	}
	s.CPU.SW(s.DockData(), 0x1234)
	if v := s.CPU.LW(s.DockData()); v != 0x1234 {
		t.Fatalf("sys64 dock echo = %#x", v)
	}
}

func TestMemoryHelpers(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	data := []byte{1, 2, 3, 4, 5}
	if err := s.WriteMem(s.MemBase()+0x1000, data); err != nil {
		t.Fatal(err)
	}
	back, err := s.ReadMem(s.MemBase()+0x1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if back[i] != data[i] {
			t.Fatal("memory roundtrip mismatch")
		}
	}
	// CPU sees the same data over the bus.
	if v := s.CPU.LB(s.MemBase() + 0x1000); v != 1 {
		t.Fatalf("LB = %d", v)
	}
	// And the UART is reachable through the bridge.
	s.CPU.SW(AddrUART+4, 'X') // TX register
	if got := s.UART.Transmitted(); len(got) != 1 || got[0] != 'X' {
		t.Fatalf("uart tx = %q", got)
	}
}

func TestMeasureAndTimeFlow(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	d := s.Measure(func() { s.CPU.Op(1000) })
	if d != 1000*s.CPUClk.Period() {
		t.Fatalf("measured %v for 1000 ops", d)
	}
}

func TestInventoriesConsistent(t *testing.T) {
	for _, mk := range []func() (*System, error){NewSys32, NewSys64} {
		s, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		inv := s.Inventory()
		if len(inv) < 10 {
			t.Errorf("%s inventory suspiciously small: %d rows", s.Name, len(inv))
		}
		if err := s.BudgetCheck(); err != nil {
			t.Error(err)
		}
		// The dock row must exist on both systems.
		found := false
		for _, m := range inv {
			if m.Name == "OPB Dock (incl. bus macros)" || m.Name == "PLB Dock (DMA + FIFO + IRQ)" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s inventory missing the dock", s.Name)
		}
	}
}
