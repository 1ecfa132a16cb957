package bitlinker

import (
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
	"repro/internal/busmacro"
	"repro/internal/fabric"
)

// testComponent builds a docked component covering part of the region.
func testComponent(name string, w, h int, macro *busmacro.Macro) *Component {
	return &Component{
		Name:      name,
		Version:   "1",
		W:         w,
		H:         h,
		Resources: fabric.Resources{Slices: 4 * w * h / 2, LUTs: w * h, FFs: w * h},
		Macro:     macro,
		PortRow0:  macro.Row0,
		CLBFrames: SynthesizeFrames(name, "1", w, h),
		BRAMSeed:  stringSeed(name),
	}
}

// staticBaseline builds a non-trivial static image so merging is observable:
// the static design occupies every frame, but leaves the dynamic region's
// band blank (the initial full configuration places no logic there).
func staticBaseline(dev *fabric.Device, region fabric.Region) *fabric.ConfigMemory {
	cm := fabric.NewConfigMemory(dev)
	frame := make([]uint32, dev.FrameLen())
	lo, hi := dev.RowWordRange(region.Row0, region.H)
	for col := 0; col < dev.Cols; col++ {
		for i := range frame {
			frame[i] = 0xC0FFEE00 + uint32(i)
			if region.ContainsCol(col) && i >= lo && i < hi {
				frame[i] = 0
			}
		}
		for minor := 0; minor < fabric.FramesPerCLBColumn; minor++ {
			if err := cm.WriteFrame(fabric.FAR{Block: fabric.BlockCLB, Major: col, Minor: minor}, frame); err != nil {
				panic(err)
			}
		}
	}
	return cm
}

func newTestAssembler(t *testing.T) (*Assembler, *fabric.Device, fabric.Region, *fabric.ConfigMemory) {
	t.Helper()
	dev := fabric.XC2VP7()
	region := fabric.DynamicRegion32()
	base := staticBaseline(dev, region)
	a, err := New(dev, region, base, busmacro.Dock32())
	if err != nil {
		t.Fatal(err)
	}
	return a, dev, region, base
}

func TestAssemblePreservesStaticDesign(t *testing.T) {
	a, dev, region, base := newTestAssembler(t)
	comp := testComponent("adder", region.W, region.H, busmacro.Dock32())
	res, err := a.Assemble(Placed{C: comp})
	if err != nil {
		t.Fatal(err)
	}
	// Load the stream onto a device currently holding the static design.
	cm := base.Clone()
	cm.Guard(region)
	if err := bitstream.NewLoader(cm).Load(res.Stream); err != nil {
		t.Fatal(err)
	}
	if cm.Disturbed() {
		t.Error("complete partial configuration disturbed the static design")
	}
	if cm.RegionHash(region) != res.RegionHash {
		t.Error("region hash after load differs from assembly prediction")
	}
	_ = dev
}

func TestAssembleIsStateIndependent(t *testing.T) {
	a, _, region, base := newTestAssembler(t)
	compA := testComponent("alpha", region.W, region.H, busmacro.Dock32())
	compB := testComponent("beta", region.W, region.H, busmacro.Dock32())
	resA, err := a.Assemble(Placed{C: compA})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := a.Assemble(Placed{C: compB})
	if err != nil {
		t.Fatal(err)
	}
	if resA.RegionHash == resB.RegionHash {
		t.Fatal("different components produced the same region hash")
	}
	// Loading B after A must give the same region hash as loading B alone:
	// BitLinker output is complete, not differential.
	cm1 := base.Clone()
	if err := bitstream.NewLoader(cm1).Load(resB.Stream); err != nil {
		t.Fatal(err)
	}
	cm2 := base.Clone()
	l := bitstream.NewLoader(cm2)
	if err := l.Load(resA.Stream); err != nil {
		t.Fatal(err)
	}
	if err := l.Load(resB.Stream); err != nil {
		t.Fatal(err)
	}
	if cm1.RegionHash(region) != cm2.RegionHash(region) {
		t.Error("complete configuration result depends on prior region state")
	}
}

func TestDifferentialHazard(t *testing.T) {
	a, _, region, base := newTestAssembler(t)
	// A fills the whole region; B is a narrower component docked at the
	// right edge, so a differential stream for B (relative to the blank
	// post-boot state) does not touch the columns A uses.
	compA := testComponent("alpha", region.W, region.H, busmacro.Dock32())
	compB := testComponent("beta", 10, region.H, busmacro.Dock32())
	placeB := Placed{C: compB, ColOff: region.W - 10}

	// Differential stream for B, assuming the region holds the blank
	// baseline (the state right after the initial full configuration).
	diffB, err := a.AssembleDifferential(base, placeB)
	if err != nil {
		t.Fatal(err)
	}
	fullB, err := a.Assemble(placeB)
	if err != nil {
		t.Fatal(err)
	}
	if diffB.Frames >= fullB.Frames {
		t.Errorf("differential stream writes %d frames, complete writes %d — differential should be smaller",
			diffB.Frames, fullB.Frames)
	}

	// Applied on the assumed state, the differential stream is correct.
	cm := base.Clone()
	if err := bitstream.NewLoader(cm).Load(diffB.Stream); err != nil {
		t.Fatal(err)
	}
	if cm.RegionHash(region) != fullB.RegionHash {
		t.Fatal("differential configuration incorrect even on its assumed base state")
	}

	// Applied after A was loaded, the differential stream leaves stale
	// frames behind: the region hash is wrong — the paper's §2.2 hazard.
	fullA, err := a.Assemble(Placed{C: compA})
	if err != nil {
		t.Fatal(err)
	}
	cm2 := base.Clone()
	l := bitstream.NewLoader(cm2)
	if err := l.Load(fullA.Stream); err != nil {
		t.Fatal(err)
	}
	if err := l.Load(diffB.Stream); err != nil {
		t.Fatal(err)
	}
	if cm2.RegionHash(region) == fullB.RegionHash {
		t.Error("differential configuration on the wrong prior state still produced a correct region — hazard not modelled")
	}
}

func TestNaiveAssemblyDisturbsStatic(t *testing.T) {
	a, _, region, base := newTestAssembler(t)
	comp := testComponent("gamma", region.W, region.H, busmacro.Dock32())
	naive, err := a.AssembleNaive(Placed{C: comp})
	if err != nil {
		t.Fatal(err)
	}
	cm := base.Clone()
	cm.Guard(region)
	if err := bitstream.NewLoader(cm).Load(naive.Stream); err != nil {
		t.Fatal(err)
	}
	if !cm.Disturbed() {
		t.Error("naive assembly left static design intact — hazard not modelled")
	}
}

func TestSmallComponentRelocation(t *testing.T) {
	a, _, region, base := newTestAssembler(t)
	// An 8x8 undocked component placed at two different positions must
	// produce different region hashes but identical component bits.
	comp := &Component{
		Name: "blob", Version: "2", W: 8, H: 8,
		Resources: fabric.Resources{Slices: 100},
		CLBFrames: SynthesizeFrames("blob", "2", 8, 8),
	}
	r1, err := a.Assemble(Placed{C: comp, ColOff: 0, RowOff: 0})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Assemble(Placed{C: comp, ColOff: 12, RowOff: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r1.RegionHash == r2.RegionHash {
		t.Error("relocation did not change region contents")
	}
	// Check the relocated bits land where expected.
	cm := base.Clone()
	if err := bitstream.NewLoader(cm).Load(r2.Stream); err != nil {
		t.Fatal(err)
	}
	lo, _ := cm.Device().RowWordRange(region.Row0, region.H)
	far := fabric.FAR{Block: fabric.BlockCLB, Major: region.Col0 + 12, Minor: 0}
	frame, _ := cm.ReadFrame(far)
	want := comp.CLBFrames[0][0][0] // relative (col 0, minor 0, row 0, word 0)
	got := frame[lo+3*2]            // region row offset 2
	if got != want {
		t.Errorf("relocated bits wrong: got %#x want %#x", got, want)
	}
}

func TestMultiComponentAssembly(t *testing.T) {
	a, _, region, _ := newTestAssembler(t)
	docked := testComponent("docked", 10, region.H, busmacro.Dock32())
	helper := &Component{
		Name: "helper", Version: "1", W: 8, H: 8,
		Resources: fabric.Resources{Slices: 64},
		CLBFrames: SynthesizeFrames("helper", "1", 8, 8),
	}
	res, err := a.Assemble(
		Placed{C: docked, ColOff: region.W - 10},
		Placed{C: helper, ColOff: 0, RowOff: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != region.W*fabric.FramesPerCLBColumn+2*fabric.FramesPerBRAMColumn {
		t.Errorf("complete assembly frame count = %d", res.Frames)
	}
}

func TestAssembleChecks(t *testing.T) {
	a, _, region, _ := newTestAssembler(t)
	dock := busmacro.Dock32()

	toowide := testComponent("toowide", region.W+1, region.H, dock)
	if _, err := a.Assemble(Placed{C: toowide}); err == nil {
		t.Error("oversized component accepted")
	}

	badmacro := testComponent("badmacro", region.W, region.H, busmacro.Dock64())
	if _, err := a.Assemble(Placed{C: badmacro}); err == nil {
		t.Error("incompatible bus macro accepted")
	}

	misaligned := testComponent("misaligned", 10, region.H-1, dock)
	if _, err := a.Assemble(Placed{C: misaligned, ColOff: region.W - 10, RowOff: 1}); err == nil {
		t.Error("port misalignment accepted (ports must land on macro rows)")
	}

	notAbutting := testComponent("floating", 10, region.H, dock)
	if _, err := a.Assemble(Placed{C: notAbutting, ColOff: 0}); err == nil {
		t.Error("docked component not abutting the dock edge accepted")
	}

	c1 := testComponent("c1", region.W, region.H, dock)
	c2 := &Component{Name: "c2", Version: "1", W: 4, H: 4,
		CLBFrames: SynthesizeFrames("c2", "1", 4, 4)}
	if _, err := a.Assemble(Placed{C: c1}, Placed{C: c2, ColOff: 1, RowOff: 1}); err == nil {
		t.Error("overlapping components accepted")
	}

	greedy := testComponent("greedy", region.W, region.H, dock)
	greedy.Resources.BRAMs = region.BRAMBudget + 1
	if _, err := a.Assemble(Placed{C: greedy}); err == nil {
		t.Error("BRAM overcommit accepted")
	}

	if _, err := a.Assemble(); err == nil {
		t.Error("empty assembly accepted")
	}

	two1 := testComponent("two1", 10, region.H, dock)
	two2 := testComponent("two2", 10, region.H, dock)
	if _, err := a.Assemble(
		Placed{C: two1, ColOff: region.W - 10},
		Placed{C: two2, ColOff: region.W - 10, RowOff: 0},
	); err == nil {
		t.Error("two docked components accepted")
	}
}

func TestComponentValidate(t *testing.T) {
	good := testComponent("ok", 4, 11, busmacro.Dock32())
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.CLBFrames = bad.CLBFrames[:2]
	if err := bad.Validate(); err == nil {
		t.Error("frame column count mismatch accepted")
	}
	bad2 := testComponent("ok", 4, 11, busmacro.Dock32())
	bad2.Resources.Slices = 4*4*11 + 1
	if err := bad2.Validate(); err == nil {
		t.Error("slice overcommit vs footprint accepted")
	}
	bad3 := testComponent("ok", 4, 5, busmacro.Dock32())
	bad3.PortRow0 = 3 // 3 + 9 rows > 5
	if err := bad3.Validate(); err == nil {
		t.Error("ports beyond footprint accepted")
	}
}

// Property: SynthesizeFrames is deterministic and version-sensitive.
func TestSynthesizeFramesProperty(t *testing.T) {
	f := func(nameSel uint8, w8, h8 uint8) bool {
		names := []string{"a", "b", "longer-name"}
		name := names[int(nameSel)%len(names)]
		w, h := 1+int(w8%6), 1+int(h8%6)
		x := SynthesizeFrames(name, "1", w, h)
		y := SynthesizeFrames(name, "1", w, h)
		z := SynthesizeFrames(name, "2", w, h)
		if len(x) != w || len(x[0]) != fabric.FramesPerCLBColumn {
			return false
		}
		same, diff := true, false
		for c := range x {
			for m := range x[c] {
				for i := range x[c][m] {
					if x[c][m][i] != y[c][m][i] {
						same = false
					}
					if x[c][m][i] != z[c][m][i] {
						diff = true
					}
				}
			}
		}
		return same && diff
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidations(t *testing.T) {
	dev := fabric.XC2VP7()
	base := fabric.NewConfigMemory(dev)
	badRegion := fabric.Region{Name: "bad", Col0: 0, Row0: 0, W: 100, H: 100}
	if _, err := New(dev, badRegion, base, nil); err == nil {
		t.Error("invalid region accepted")
	}
	other := fabric.NewConfigMemory(fabric.XC2VP30())
	if _, err := New(dev, fabric.DynamicRegion32(), other, nil); err == nil {
		t.Error("baseline from another device accepted")
	}
}
