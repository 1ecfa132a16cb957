package platform

import (
	"hash/fnv"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitlinker"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/hwcore"
	"repro/internal/plan"
	"repro/internal/region"
)

// halfFloorplan is S4's half64 floorplan: the first half-area of the
// dual-region 64-bit floorplan as a single-region board.
func halfFloorplan(t *testing.T) region.Floorplan {
	t.Helper()
	fp, err := region.Default(true, 2)
	if err != nil {
		t.Fatal(err)
	}
	return region.Floorplan{Name: "half64", Areas: fp.Areas[:1]}
}

// bootShape is one board shape the shared-image tests boot.
type bootShape struct {
	name string
	is64 bool
	fp   region.Floorplan
	boot func() (*System, error)
}

// bootShapes are the paper's 32-bit board, the dual-region 64-bit board and
// S4's half64 board.
func bootShapes(t *testing.T) []bootShape {
	dual, err := region.Default(true, 2)
	if err != nil {
		t.Fatal(err)
	}
	half := halfFloorplan(t)
	return []bootShape{
		{"sys32", false, region.Single32(), NewSys32},
		{"sys64x2", true, dual, func() (*System, error) { return NewSys64N(2) }},
		{"half64", true, half, func() (*System, error) { return NewSystem(true, half) }},
	}
}

// cmDigest hashes every frame of a configuration memory.
func cmDigest(t *testing.T, cm *fabric.ConfigMemory) uint64 {
	t.Helper()
	h := fnv.New64a()
	dev := cm.Device()
	for i := 0; i < dev.NumFrames(); i++ {
		far, err := dev.FARAt(i)
		if err != nil {
			t.Fatal(err)
		}
		f, err := cm.ReadFrame(far)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range f {
			h.Write([]byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
		}
	}
	return h.Sum64()
}

// wordsDigest hashes a stream's words.
func wordsDigest(words []uint32) uint64 {
	h := fnv.New64a()
	for _, w := range words {
		h.Write([]byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
	}
	return h.Sum64()
}

// TestSharedBootEqualsFreshAssembly: a board booted from its shape's
// shared image holds exactly what assembling the shape afresh gives
// — the static design in its configuration memory, frame for frame, and
// per region every fitting module's complete stream, post-load image and
// region hash — and two boards of one shape share the module streams but
// not their configuration memories.
func TestSharedBootEqualsFreshAssembly(t *testing.T) {
	for _, shape := range bootShapes(t) {
		t.Run(shape.name, func(t *testing.T) {
			s, err := shape.boot()
			if err != nil {
				t.Fatal(err)
			}
			fp := shape.fp
			dev := fabric.XC2VP7()
			if shape.is64 {
				dev = fabric.XC2VP30()
			}
			if !reflect.DeepEqual(*s.Dev, *dev) {
				t.Fatalf("board device %v, want %v", s.Dev, dev)
			}
			cm := fabric.NewConfigMemory(dev)
			loadStaticDesign(cm, fp.Regions())
			cm.Guard(fp.Regions()...)
			baseline := cm.Clone()
			if got, want := s.CM.FrameWrites(), cm.FrameWrites(); got != want {
				t.Errorf("board FrameWrites %d, want %d", got, want)
			}
			for i := 0; i < dev.NumFrames(); i++ {
				far, _ := dev.FARAt(i)
				got, _ := s.CM.ReadFrame(far)
				want, _ := cm.ReadFrame(far)
				if !slices.Equal(got, want) {
					t.Fatalf("board frame %v differs from the fresh static design", far)
				}
			}
			if !s.CM.Guarded() || s.CM.Disturbed() {
				t.Fatalf("board memory guarded=%v disturbed=%v, want a clean guard", s.CM.Guarded(), s.CM.Disturbed())
			}
			for ri, a := range fp.Areas {
				mgr := s.regions[ri].mgr
				asm, err := bitlinker.New(dev, a.R, baseline, a.Macro)
				if err != nil {
					t.Fatal(err)
				}
				for _, spec := range hwcore.Specs() {
					comp, err := hwcore.BuildComponent(spec, dev, a.R, a.Macro)
					if err != nil {
						if mgr.Has(spec.Name) {
							t.Errorf("region %s registered %s, which does not fit it", a.R.Name, spec.Name)
						}
						continue
					}
					placed := bitlinker.Placed{C: comp, ColOff: a.R.W - comp.W}
					res, err := asm.Assemble(placed)
					if err != nil {
						t.Fatal(err)
					}
					target := asm.Target(placed)
					mod := mgr.Module(spec.Name)
					if mod == nil {
						t.Fatalf("region %s did not register %s", a.R.Name, spec.Name)
					}
					got := mod.Complete()
					if !slices.Equal(got.Stream.Words, res.Stream.Words) || got.Frames != res.Frames {
						t.Errorf("region %s, %s: complete stream differs from a fresh assembly", a.R.Name, spec.Name)
					}
					if got.RegionHash != res.RegionHash {
						t.Errorf("region %s, %s: region hash %#x, want %#x", a.R.Name, spec.Name, got.RegionHash, res.RegionHash)
					}
					if cmDigest(t, mod.Target()) != cmDigest(t, target) {
						t.Errorf("region %s, %s: post-load image differs from a fresh assembly", a.R.Name, spec.Name)
					}
				}
			}

			twin, err := shape.boot()
			if err != nil {
				t.Fatal(err)
			}
			if twin.CM == s.CM {
				t.Fatal("two boards of one shape share a configuration memory")
			}
			for ri := range fp.Areas {
				for _, name := range s.regions[ri].mgr.Modules() {
					a, b := s.regions[ri].mgr.Module(name), twin.regions[ri].mgr.Module(name)
					if b == nil || &a.Complete().Stream.Words[0] != &b.Complete().Stream.Words[0] {
						t.Errorf("region %d, %s: the two boards do not share one stream", ri, name)
					}
				}
			}
		})
	}
}

// TestBoardsOfOneShapeStayIsolated: everything a board does — loading every
// module, differential and compressed streams included, taking an upset,
// scrubbing and repairing it, and corrupting its static design with a
// naive load — stays on that board. Its twin's configuration memory and
// resident state, the shared static baseline and every shared stream,
// post-load image, memoized differential and container are untouched.
func TestBoardsOfOneShapeStayIsolated(t *testing.T) {
	a, err := NewSys64N(2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSys64N(2)
	if err != nil {
		t.Fatal(err)
	}
	img, err := bootImage(true, b.Floorplan)
	if err != nil {
		t.Fatal(err)
	}
	type regionState struct {
		resident      string
		authoritative bool
	}
	states := func(s *System) []regionState {
		var out []regionState
		for _, rs := range s.regions {
			cur, ok := rs.mgr.ResidentState()
			out = append(out, regionState{cur, ok})
		}
		return out
	}
	// shared digests the image, and in every region's memo the streams
	// board A's loads below can read: each module's complete container,
	// and the differential and its container of every step of the chain
	// blank → first module → … → last module, in A's (name) order. The
	// first call builds them.
	shared := func() []uint64 {
		t.Helper()
		sums := []uint64{cmDigest(t, img.baseline)}
		for ri, ir := range img.regions {
			var from *core.Module
			for _, name := range a.regions[ri].mgr.Modules() {
				mod := a.regions[ri].mgr.Module(name)
				sums = append(sums, wordsDigest(mod.Complete().Stream.Words), cmDigest(t, mod.Target()))
				zf, err := ir.memo.CompleteCompressed(mod)
				if err != nil {
					t.Fatal(err)
				}
				d, err := ir.memo.Differential(from, mod)
				if err != nil {
					t.Fatal(err)
				}
				zd, err := ir.memo.Compressed(from, mod)
				if err != nil {
					t.Fatal(err)
				}
				sums = append(sums, wordsDigest(zf.Words), wordsDigest(d.Stream.Words), wordsDigest(zd.Words))
				from = mod
			}
		}
		return sums
	}
	assemblies := func() (n uint64) {
		for _, ir := range img.regions {
			n += ir.memo.Assemblies()
		}
		return n
	}
	if _, err := b.LoadModuleOn(1, "jenkins", nil); err != nil {
		t.Fatal(err)
	}
	bDigest, bStates, sharedBefore := cmDigest(t, b.CM), states(b), shared()
	built := assemblies()
	// readsShapeMemo checks that board A counts its shape's assemblies,
	// those shared() made included: it reads the shape's memo.
	readsShapeMemo := func(when string) {
		t.Helper()
		for ri, ir := range img.regions {
			if n, want := a.regions[ri].mgr.Counters().DiffAssemblies, ir.memo.Assemblies(); n != want {
				t.Errorf("%s, board A's region %d counts %d assemblies, the shape's memo %d", when, ri, n, want)
			}
		}
	}
	readsShapeMemo("before its loads")
	checkShared := func(after string) {
		t.Helper()
		if !slices.Equal(shared(), sharedBefore) {
			t.Errorf("the shared boot image changed after board A's %s", after)
		}
	}

	a.SetCompression(true)
	for ri, rs := range a.regions {
		for _, name := range rs.mgr.Modules() {
			if _, err := a.LoadModuleOn(ri, name, nil); err != nil {
				t.Fatalf("region %d, %s: %v", ri, name, err)
			}
		}
	}
	if c := a.regions[0].mgr.Counters(); c.DiffLoads+c.CompressedLoads == 0 {
		t.Fatal("no load streamed against a shared post-load image")
	}
	if n := assemblies(); n != built {
		t.Errorf("board A's loads assembled %d differentials; the memo held every stream they read", n-built)
	}
	readsShapeMemo("after its loads")
	checkShared("planned and compressed loads")
	if err := a.InjectFaultOn(0, 3, 2, 7); err != nil {
		t.Fatal(err)
	}
	rep := a.ScrubOn(0)
	if !rep.Detected {
		t.Fatal("scrub missed the injected upset")
	}
	if _, err := a.LoadModuleOn(0, rep.Module, nil); err != nil {
		t.Fatal(err)
	}
	checkShared("upset and repair")
	if _, err := a.regions[0].mgr.LoadNaive("jenkins"); err != nil {
		t.Fatal(err)
	}
	if !a.regions[0].mgr.Corrupted() {
		t.Fatal("the naive load did not corrupt board A's static design")
	}
	checkShared("naive load")

	if cmDigest(t, b.CM) != bDigest {
		t.Error("board B's configuration memory changed")
	}
	if got := states(b); !slices.Equal(got, bStates) {
		t.Errorf("board B's resident state %v, was %v", got, bStates)
	}
	for ri, rs := range b.regions {
		if rs.mgr.Corrupted() {
			t.Errorf("board B's region %d reads corrupted", ri)
		}
	}
}

// coldShape drops the shape's boot image from the process's cache, so the
// next board of the shape builds the image afresh, its memos empty.
// Boards booted before keep the image they booted from.
func coldShape(is64 bool, fp region.Floorplan) { images.Delete(shapeKey(is64, fp)) }

// TestTransitionsOncePerShape: boards of one shape share each region's
// transition memo. Two boards that drive the same differential and
// compressed transitions assemble each pair once between them; eight
// boards booting and planning one pair at once assemble it once; and a
// plan whose streams the memo holds allocates nothing.
func TestTransitionsOncePerShape(t *testing.T) {
	fp := region.Single32()
	coldShape(false, fp)
	// shapeCount is the assembly count of the shape's memo, the one every
	// board of the shape must read.
	shapeCount := func() uint64 {
		img, err := bootImage(false, fp)
		if err != nil {
			t.Fatal(err)
		}
		return img.regions[0].memo.Assemblies()
	}
	steps := []struct {
		compress bool
		modules  []string
	}{
		{false, []string{"jenkins", "fade", "jenkins"}},
		{true, []string{"fade", "jenkins"}},
	}
	var warm *System
	for i := 0; i < 2; i++ {
		s, err := NewSys32()
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range steps {
			s.SetCompression(step.compress)
			for _, name := range step.modules {
				if _, err := s.LoadModuleOn(0, name, nil); err != nil {
					t.Fatalf("board %d, %s: %v", i, name, err)
				}
			}
		}
		// The chain's pairs: blank → jenkins, jenkins → fade, fade → jenkins.
		row := s.Status().Regions[0]
		if row.DiffLoads == 0 || row.CompressedLoads == 0 {
			t.Fatalf("board %d streamed %d differential and %d compressed loads, want both kinds", i, row.DiffLoads, row.CompressedLoads)
		}
		if n := shapeCount(); n != 3 || row.DiffAssemblies != n {
			t.Errorf("after board %d: %d differentials assembled for 3 pairs, want 3; the board counts %d", i, n, row.DiffAssemblies)
		}
		warm = s
	}

	coldShape(false, fp)
	var boards [8]*System
	var wg sync.WaitGroup
	for i := range boards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := NewSys32()
			if err == nil {
				_, err = s.PlanForOn(0, "jenkins")
			}
			if err != nil {
				t.Error(err)
				return
			}
			boards[i] = s
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := shapeCount(); n != 1 {
		t.Errorf("8 boards booted at once: %d differentials assembled for one pair, want 1", n)
	}
	for i, s := range boards {
		if n := s.Status().Regions[0].DiffAssemblies; n != 1 {
			t.Errorf("board %d of 8 booted at once counts %d assemblies, want the shape's 1", i, n)
		}
	}

	if got, err := warm.PlanForOn(0, "fade"); err != nil || got.Kind == plan.StreamNone {
		t.Fatalf("warm plan jenkins -> fade: %+v, %v", got, err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := warm.PlanForOn(0, "fade"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a warm PlanForOn allocates %.0f times, want 0", n)
	}
}

// TestShapeKeyByValue: floorplans built apart but equal in value, or equal
// in everything but name, boot from one image; a different floorplan or
// board width does not.
func TestShapeKeyByValue(t *testing.T) {
	fp1, err := region.Default(true, 2)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := region.Default(true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fp1.Areas[0].Macro == fp2.Areas[0].Macro {
		t.Fatal("region.Default returned one macro twice; the test needs two")
	}
	img1, err := bootImage(true, fp1)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := bootImage(true, fp2)
	if err != nil {
		t.Fatal(err)
	}
	if img1 != img2 {
		t.Error("equal floorplans built apart boot from two images")
	}
	if shapeKey(true, fp1) == shapeKey(true, halfFloorplan(t)) || shapeKey(true, region.Single64()) == shapeKey(false, region.Single64()) {
		t.Error("different shapes share a key")
	}
	// region.Default(false, 1) names its floorplan "single32/x1", NewSys32's
	// is "single32": one shape, one image.
	a, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSys32N(1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Floorplan.Name == b.Floorplan.Name || a.Mgr.Module("jenkins") != b.Mgr.Module("jenkins") {
		t.Error("floorplans differing only in name boot from two images")
	}
}
