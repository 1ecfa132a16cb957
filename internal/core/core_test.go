package core

import (
	"testing"

	"repro/internal/bitlinker"
	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/busmacro"
	"repro/internal/cpu"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/icap"
	"repro/internal/plan"
	"repro/internal/sim"
)

// testCore is a minimal behavioural model for manager tests.
type testCore struct{ id uint64 }

func (c *testCore) Name() string             { return "test" }
func (c *testCore) Reset()                   {}
func (c *testCore) Write(v uint64, size int) {}
func (c *testCore) Read() uint64             { return c.id }
func (c *testCore) PopOut() (uint64, bool)   { return 0, false }
func (c *testCore) CyclesPerWord() int       { return 1 }

// rig assembles a minimal platform around a manager over an erased XC2VP7.
func rig(t *testing.T) (*Manager, *fabric.ConfigMemory, fabric.Region, func() hw.Core) {
	t.Helper()
	return rigWithState(t, fabric.NewConfigMemory(fabric.XC2VP7()))
}

func testComponent(name string, region fabric.Region) *bitlinker.Component {
	return testComponentW(name, region, 6)
}

// testComponentW builds a component of the given footprint width. Widths
// matter for the differential-hazard test: a differential stream only
// touches the columns its own component uses, so stale state survives when
// the previous occupant was wider.
func testComponentW(name string, region fabric.Region, w int) *bitlinker.Component {
	macro := busmacro.Dock32()
	return &bitlinker.Component{
		Name: name, Version: "1", W: w, H: region.H,
		Resources: fabric.Resources{Slices: 100},
		Macro:     macro, PortRow0: macro.Row0,
		CLBFrames: bitlinker.SynthesizeFrames(name, "1", w, region.H),
	}
}

// register assembles the component with the assembler of the manager's
// memo and registers the module.
func register(m *Manager, comp *bitlinker.Component, factory func() hw.Core) error {
	mod, err := NewModule(m.cfg.Memo.asm, comp, factory)
	if err != nil {
		return err
	}
	return m.Register(mod)
}

// completePlan is the plan that streams the module's complete
// configuration, whatever the region holds.
func completePlan(name string) plan.Plan {
	return plan.Plan{Module: name, Kind: plan.StreamComplete}
}

func TestRegisterAndLoad(t *testing.T) {
	mgr, _, region, bound := rig(t)
	if err := register(mgr, testComponent("alpha", region), func() hw.Core { return &testCore{id: 1} }); err != nil {
		t.Fatal(err)
	}
	if err := register(mgr, testComponent("beta", region), func() hw.Core { return &testCore{id: 2} }); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Modules(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("modules = %v", got)
	}
	d, err := mgr.LoadPlanned(completePlan("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if d == 0 {
		t.Fatal("load cost no time")
	}
	if mgr.Current() != "alpha" || bound() == nil || bound().Read() != 1 {
		t.Fatal("alpha not bound")
	}
	// Swap and check rebinding.
	if _, err := mgr.LoadPlanned(completePlan("beta")); err != nil {
		t.Fatal(err)
	}
	if mgr.Current() != "beta" || bound().Read() != 2 {
		t.Fatal("beta not bound after swap")
	}
	// Re-loading the current module is free: the planner plans no stream.
	resident, ok := mgr.ResidentState()
	p, err := plan.New(mgr).Plan(resident, ok, "beta")
	if err != nil || p.Kind != plan.StreamNone {
		t.Fatalf("reload plan %+v err %v, want no-op", p, err)
	}
	d, err = mgr.LoadPlanned(p)
	if err != nil || d != 0 {
		t.Fatalf("reload: d=%v err=%v", d, err)
	}
	if c := mgr.Counters(); c.Loads != 2 || c.LoadTime == 0 || c.StreamedBytes == 0 {
		t.Fatalf("counters: %+v", c)
	}
	if mgr.Corrupted() {
		t.Fatal("corrupted after clean loads")
	}
}

func TestDuplicateAndUnknown(t *testing.T) {
	mgr, _, region, _ := rig(t)
	if err := register(mgr, testComponent("alpha", region), func() hw.Core { return &testCore{} }); err != nil {
		t.Fatal(err)
	}
	if err := register(mgr, testComponent("alpha", region), func() hw.Core { return &testCore{} }); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, err := mgr.LoadPlanned(completePlan("nope")); err == nil {
		t.Fatal("unknown module loaded")
	}
	if _, err := mgr.LoadDifferential("nope", ""); err == nil {
		t.Fatal("unknown differential module loaded")
	}
	if _, err := mgr.LoadNaive("nope"); err == nil {
		t.Fatal("unknown naive module loaded")
	}
	if _, _, err := mgr.CompleteSize("nope"); err == nil {
		t.Fatal("unknown stream size")
	}
	if n, _, err := mgr.CompleteSize("alpha"); err != nil || n == 0 {
		t.Fatalf("stream size: %d %v", n, err)
	}
}

func TestDifferentialBindsBrokenOnWrongState(t *testing.T) {
	mgr, _, region, bound := rig(t)
	// alpha is wider than beta: a differential stream for beta leaves
	// alpha's extra columns stale.
	if err := register(mgr, testComponentW("alpha", region, 12), func() hw.Core { return &testCore{id: 1} }); err != nil {
		t.Fatal(err)
	}
	if err := register(mgr, testComponentW("beta", region, 6), func() hw.Core { return &testCore{id: 2} }); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.LoadPlanned(completePlan("alpha")); err != nil {
		t.Fatal(err)
	}
	// Differential for beta assuming a blank region — wrong, alpha is there.
	if _, err := mgr.LoadDifferential("beta", ""); err != nil {
		t.Fatal(err)
	}
	if mgr.Current() != "" {
		t.Fatalf("current = %q, want broken binding", mgr.Current())
	}
	if _, ok := bound().(*hw.BrokenCore); !ok {
		t.Fatal("expected BrokenCore")
	}
	// Differential with the right assumption works.
	if _, err := mgr.LoadPlanned(completePlan("beta")); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.LoadDifferential("alpha", "beta"); err != nil {
		t.Fatal(err)
	}
	if mgr.Current() != "alpha" {
		t.Fatal("correct differential did not bind")
	}
}

// TestNaiveLoadCorrupts: a naive stream zeroes the static rows sharing the
// region's frames. It must read as corruption both when it replaces the
// region's content and when it reproduces the resident module's band
// exactly, so that rebind keeps the binding as it does for a sibling's
// stream.
func TestNaiveLoadCorrupts(t *testing.T) {
	for _, resident := range []bool{false, true} {
		// Give the static area some content so corruption is observable:
		// outside the region band only, the band stays blank.
		cm := fabric.NewConfigMemory(fabric.XC2VP7())
		region := fabric.DynamicRegion32()
		frame := make([]uint32, cm.Device().FrameLen())
		for i := range frame {
			frame[i] = 0xA5A5A5A5
		}
		lo, hi := cm.Device().RowWordRange(region.Row0, region.H)
		clear(frame[lo:hi])
		if err := cm.WriteFrame(fabric.FAR{Block: fabric.BlockCLB, Major: region.Col0}, frame); err != nil {
			t.Fatal(err)
		}
		mgr, _, _, _ := rigWithState(t, cm)
		if err := register(mgr, testComponent("alpha", region), func() hw.Core { return &testCore{} }); err != nil {
			t.Fatal(err)
		}
		if resident {
			if _, err := mgr.LoadPlanned(completePlan("alpha")); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := mgr.LoadNaive("alpha"); err != nil {
			t.Fatal(err)
		}
		if n := mgr.modules["alpha"].loads; resident && n != 1 {
			t.Fatalf("alpha bound %d times, want 1: the naive reload did not keep the binding", n)
		}
		if !mgr.Corrupted() {
			t.Fatalf("naive load (alpha resident: %v) did not corrupt the static design", resident)
		}
	}
}

// rigWithState guards the paper's 32-bit region of an existing
// configuration state and builds a manager over it.
func rigWithState(t *testing.T, cm *fabric.ConfigMemory) (*Manager, *fabric.ConfigMemory, fabric.Region, func() hw.Core) {
	t.Helper()
	cm.Guard(fabric.DynamicRegion32())
	cfg, bound, _ := rigConfig(t, cm)
	mgr, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return mgr, cm, cfg.Region, bound
}

// rigConfig wires a minimal platform around the configuration memory: CPU,
// one bus, HWICAP, the paper's 32-bit region. The CPU's stores to the
// HWICAP are posted. The returned function reports the core last bound to
// the dock; the bus is returned for its counters.
func rigConfig(t *testing.T, cm *fabric.ConfigMemory) (Config, func() hw.Core, *bus.Bus) {
	t.Helper()
	dev := cm.Device()
	region := fabric.DynamicRegion32()
	baseline := cm.Clone()
	loader := bitstream.NewLoader(cm)
	k := sim.NewKernel()
	busClk := sim.NewClock("bus", 50_000_000)
	cpuClk := sim.NewClock("cpu", 200_000_000)
	b := bus.New("plb", k, busClk, 8, bus.Params{ArbCycles: 2, ReadExtra: 2, BeatCycles: 1})
	hi := icap.New(k, busClk, loader)
	if err := b.Map(0x4100_0000, 0x100, hi); err != nil {
		t.Fatal(err)
	}
	params := cpu.DefaultParams(cpuClk)
	params.CacheSize = 0
	c := cpu.New(k, params, b)
	asm, err := bitlinker.New(dev, region, baseline, busmacro.Dock32())
	if err != nil {
		t.Fatal(err)
	}
	var bound hw.Core
	return Config{
		Device: dev, Region: region, ConfigMem: cm, Memo: NewMemo(asm, baseline),
		Loader: loader, CPU: c, ICAPBase: 0x4100_0000, ICAP: hi,
		Bind:   func(core hw.Core) { bound = core },
		Kernel: k,
	}, func() hw.Core { return bound }, b
}

// TestIncompleteConfigRejected: a manager missing any of its wiring is
// refused — the HWICAP included, whose decoder every compressed load arms.
func TestIncompleteConfigRejected(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	cm := fabric.NewConfigMemory(fabric.XC2VP7())
	cm.Guard(fabric.DynamicRegion32())
	cfg, _, _ := rigConfig(t, cm)
	cfg.ICAP = nil
	if _, err := NewManager(cfg); err == nil {
		t.Fatal("config without an HWICAP accepted")
	}
}

// TestUnguardedMemoryRejected: a manager over a configuration memory with
// no static-design guard could never see a disturbed static design, so it
// is refused rather than built blind.
func TestUnguardedMemoryRejected(t *testing.T) {
	cfg, _, _ := rigConfig(t, fabric.NewConfigMemory(fabric.XC2VP7()))
	if _, err := NewManager(cfg); err == nil {
		t.Fatal("manager built over an unguarded configuration memory")
	}
	cfg.ConfigMem.Guard(cfg.Region)
	if _, err := NewManager(cfg); err != nil {
		t.Fatalf("guarded configuration memory refused: %v", err)
	}
}

// TestDifferentialAssemblyMemoized is the regression test for the
// (assumed, name) differential cache: repeated loads of the same
// transition must not re-run AssembleDifferential.
func TestDifferentialAssemblyMemoized(t *testing.T) {
	mgr, _, region, _ := rig(t)
	if err := register(mgr, testComponent("alpha", region), func() hw.Core { return &testCore{id: 1} }); err != nil {
		t.Fatal(err)
	}
	if err := register(mgr, testComponent("beta", region), func() hw.Core { return &testCore{id: 2} }); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.LoadPlanned(completePlan("alpha")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := mgr.LoadDifferential("beta", "alpha"); err != nil {
			t.Fatalf("round %d alpha->beta: %v", i, err)
		}
		if _, err := mgr.LoadDifferential("alpha", "beta"); err != nil {
			t.Fatalf("round %d beta->alpha: %v", i, err)
		}
	}
	if n := mgr.Counters().DiffAssemblies; n != 2 {
		t.Fatalf("AssembleDifferential ran %d times for 10 loads of 2 transitions, want 2", n)
	}
	// Size queries share the same cache.
	if _, _, err := mgr.DifferentialSize("alpha", "beta"); err != nil {
		t.Fatal(err)
	}
	if n := mgr.Counters().DiffAssemblies; n != 2 {
		t.Fatalf("DifferentialSize re-assembled: %d assemblies", n)
	}
}

// TestPlannedLoadHazardGate is the §2.2 safety property: a differential
// plan whose assumed from-state no longer matches the authoritative
// resident state is refused without any ICAP traffic, and a non-
// authoritative state can never yield a differential plan at all.
func TestPlannedLoadHazardGate(t *testing.T) {
	mgr, _, region, _ := rig(t)
	// alpha is wider than beta/gamma, so a differential for a narrow module
	// that wrongly assumes a blank region leaves alpha's extra columns
	// stale — the poisoning step below depends on that asymmetry.
	for i, c := range []struct {
		name string
		w    int
	}{{"alpha", 12}, {"beta", 6}, {"gamma", 6}} {
		id := uint64(i + 1)
		if err := register(mgr, testComponentW(c.name, region, c.w), func() hw.Core { return &testCore{id: id} }); err != nil {
			t.Fatal(err)
		}
	}
	planner := plan.New(mgr)
	if _, err := mgr.LoadPlanned(completePlan("alpha")); err != nil {
		t.Fatal(err)
	}
	resident, ok := mgr.ResidentState()
	if resident != "alpha" || !ok {
		t.Fatalf("resident state = (%q, %v), want authoritative alpha", resident, ok)
	}
	// Plan a differential alpha -> beta, then make it stale.
	p, err := planner.Plan(resident, ok, "beta")
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != plan.StreamDifferential || p.From != "alpha" {
		t.Fatalf("plan %+v, want differential from alpha", p)
	}
	if _, err := mgr.LoadPlanned(completePlan("gamma")); err != nil {
		t.Fatal(err)
	}
	before := mgr.Counters()
	if _, err := mgr.LoadPlanned(p); err == nil {
		t.Fatal("stale differential plan was issued")
	}
	if after := mgr.Counters(); after != before {
		t.Fatalf("stale plan touched the ICAP: counters %+v -> %+v", before, after)
	}
	if cur := mgr.Current(); cur != "gamma" {
		t.Fatalf("region binds %q after refused plan, want gamma", cur)
	}
	// Re-planning against the current state succeeds and loads.
	resident, ok = mgr.ResidentState()
	p2, err := planner.Plan(resident, ok, "beta")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.LoadPlanned(p2); err != nil {
		t.Fatal(err)
	}
	if mgr.Current() != "beta" || mgr.Corrupted() {
		t.Fatal("re-planned differential did not bind cleanly")
	}

	// Poison the tracked state with the legacy hazard API: a differential
	// for narrow beta that wrongly assumes a blank region while wide alpha
	// is resident leaves unrecognized region content.
	if _, err := mgr.LoadPlanned(completePlan("alpha")); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.LoadDifferential("beta", ""); err != nil {
		t.Fatal(err)
	}
	resident, ok = mgr.ResidentState()
	if ok {
		t.Fatalf("resident state (%q) still authoritative after wrong-assumption differential", resident)
	}
	p3, err := planner.Plan(resident, ok, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if p3.Kind != plan.StreamComplete {
		t.Fatalf("planner offered %v against non-authoritative state, must be complete", p3.Kind)
	}
	if _, err := mgr.LoadPlanned(p3); err != nil {
		t.Fatal(err)
	}
	if mgr.Current() != "alpha" {
		t.Fatal("complete recovery load did not bind")
	}
	if resident, ok = mgr.ResidentState(); !ok || resident != "alpha" {
		t.Fatalf("resident state = (%q, %v) after recovery, want authoritative alpha", resident, ok)
	}
}

// TestStaleNoOpPlanRefused: even a no-op plan is verified against the
// resident state at issue time.
func TestStaleNoOpPlanRefused(t *testing.T) {
	mgr, _, region, _ := rig(t)
	if err := register(mgr, testComponent("alpha", region), func() hw.Core { return &testCore{id: 1} }); err != nil {
		t.Fatal(err)
	}
	if err := register(mgr, testComponent("beta", region), func() hw.Core { return &testCore{id: 2} }); err != nil {
		t.Fatal(err)
	}
	planner := plan.New(mgr)
	if _, err := mgr.LoadPlanned(completePlan("alpha")); err != nil {
		t.Fatal(err)
	}
	p, err := planner.Plan("alpha", true, "alpha")
	if err != nil || p.Kind != plan.StreamNone {
		t.Fatalf("plan %+v err %v, want no-op", p, err)
	}
	if _, err := mgr.LoadPlanned(completePlan("beta")); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.LoadPlanned(p); err == nil {
		t.Fatal("stale no-op plan accepted while beta is resident")
	}
}

// TestStalePlansRefusedOnBothTransports sends every gated plan kind, made
// stale by a later load, through both transports: CPU stores (LoadPlanned)
// and a dock DMA engine (BeginPlanned). Each must be refused without
// touching a configuration port and report the same hazard reason.
func TestStalePlansRefusedOnBothTransports(t *testing.T) {
	mgr, _, region, _ := rig(t)
	for i, name := range []string{"alpha", "beta", "gamma"} {
		id := uint64(i + 1)
		if err := register(mgr, testComponent(name, region), func() hw.Core { return &testCore{id: id} }); err != nil {
			t.Fatal(err)
		}
	}
	// Every plan below assumes alpha is resident; gamma is.
	if _, err := mgr.LoadPlanned(completePlan("gamma")); err != nil {
		t.Fatal(err)
	}
	var events []string
	mgr.SetNotify(func(event, reason string) { events = append(events, event+":"+reason) })
	eng := icap.NewDMA(mgr.cfg.Kernel, sim.NewClock("bus", 50_000_000), mgr.cfg.Loader)
	transports := []struct {
		name string
		load func(plan.Plan) error
	}{
		{"cpu", func(p plan.Plan) error { _, err := mgr.LoadPlanned(p); return err }},
		{"dma", func(p plan.Plan) error { _, err := mgr.BeginPlanned(p, eng); return err }},
	}
	cases := []struct {
		name   string
		p      plan.Plan
		reason string
	}{
		{"no-op", plan.Plan{Module: "alpha", From: "alpha", Kind: plan.StreamNone}, "stale-noop"},
		{"differential", plan.Plan{Module: "beta", From: "alpha", Kind: plan.StreamDifferential}, "stale-differential"},
		{"compressed differential", plan.Plan{Module: "beta", From: "alpha",
			Kind: plan.StreamCompressed, Base: plan.StreamDifferential}, "stale-compressed"},
	}
	for _, tc := range cases {
		for _, tr := range transports {
			before := mgr.Counters()
			events = nil
			if err := tr.load(tc.p); err == nil {
				t.Errorf("%s via %s: stale plan accepted", tc.name, tr.name)
			}
			if after := mgr.Counters(); after != before {
				t.Errorf("%s via %s: stale plan touched the port: counters %+v -> %+v",
					tc.name, tr.name, before, after)
			}
			if want := "hazard:" + tc.reason; len(events) != 1 || events[0] != want {
				t.Errorf("%s via %s: notify saw %q, want [%q]", tc.name, tr.name, events, want)
			}
		}
	}
	if transfers, _ := eng.Stats(); transfers != 0 {
		t.Errorf("DMA engine ran %d transfers for refused plans", transfers)
	}
	if cur, ok := mgr.ResidentState(); !ok || cur != "gamma" {
		t.Errorf("resident state (%q, %v) after refusals, want authoritative gamma", cur, ok)
	}
}
