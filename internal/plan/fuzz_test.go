package plan_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bitlinker"
	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/plan"
	"repro/internal/region"
)

// The fuzz fixture: the dual-region 64-bit floorplan with a synthetic
// module library per area, shared across iterations (and rebuilt once per
// fuzz worker process).
type fuzzArea struct {
	area     region.Area
	asm      *bitlinker.Assembler
	spans    []region.Span
	names    []string
	placed   map[string]bitlinker.Placed
	images   map[string]*fabric.ConfigMemory // post-load region images ("" = baseline)
	complete map[string]*bitlinker.Result
	// hasher hashes the area in the world's live memory, across loads.
	hasher *fabric.RegionHasher
}

type fuzzWorld struct {
	dev      *fabric.Device
	fp       region.Floorplan
	baseline *fabric.ConfigMemory
	areas    []*fuzzArea
	// live takes every fuzzed stream in turn, whatever it was assembled
	// against, so its areas' hashers see a long run of loads. A fuzz
	// worker runs one input at a time.
	live *fabric.ConfigMemory
}

var (
	fuzzOnce sync.Once
	world    *fuzzWorld
	fuzzErr  error
)

// fuzzSource adapts one area's assembler to plan.Source.
type fuzzSource struct{ fa *fuzzArea }

func (s fuzzSource) Has(name string) bool { _, ok := s.fa.placed[name]; return ok }

func (s fuzzSource) CompleteSize(name string) (int, int, error) {
	r, ok := s.fa.complete[name]
	if !ok {
		return 0, 0, fmt.Errorf("unknown module %s", name)
	}
	return r.Stream.SizeBytes(), r.Frames, nil
}

func (s fuzzSource) DifferentialSize(from, to string) (int, int, error) {
	res, err := s.fa.asm.AssembleDifferential(s.fa.images[from], s.fa.placed[to])
	if err != nil {
		return 0, 0, err
	}
	return res.Stream.SizeBytes(), res.Frames, nil
}

func (s fuzzSource) CompressedSize(from, to string) (int, int, int, error) {
	res, err := s.fa.asm.AssembleDifferential(s.fa.images[from], s.fa.placed[to])
	if err != nil {
		return 0, 0, 0, err
	}
	z, err := bitstream.Compress(s.fa.images[from].Device(), res.Stream, s.fa.images[from], res.Frames)
	if err != nil {
		return 0, 0, 0, err
	}
	return z.SizeBytes(), z.RawBytes(), z.Frames, nil
}

func (s fuzzSource) CompleteCompressedSize(name string) (int, int, int, error) {
	r, ok := s.fa.complete[name]
	if !ok {
		return 0, 0, 0, fmt.Errorf("unknown module %s", name)
	}
	z, err := bitstream.Compress(s.fa.images[name].Device(), r.Stream, nil, r.Frames)
	if err != nil {
		return 0, 0, 0, err
	}
	return z.SizeBytes(), z.RawBytes(), z.Frames, nil
}

func buildFuzzWorld() (*fuzzWorld, error) {
	dev := fabric.XC2VP30()
	fp, err := region.Default(true, 2)
	if err != nil {
		return nil, err
	}
	// Static design everywhere except the region bands (both blanked), as
	// the initial full configuration leaves them.
	cm := fabric.NewConfigMemory(dev)
	frame := make([]uint32, dev.FrameLen())
	for col := 0; col < dev.Cols; col++ {
		band := fabric.Region{}
		blank := false
		for _, a := range fp.Areas {
			if a.R.ContainsCol(col) {
				band, blank = a.R, true
			}
		}
		lo, hi := 0, 0
		if blank {
			lo, hi = dev.RowWordRange(band.Row0, band.H)
		}
		for i := range frame {
			frame[i] = 0xC0FFEE00 + uint32(col)<<8 + uint32(i)
			if blank && i >= lo && i < hi {
				frame[i] = 0
			}
		}
		for minor := 0; minor < fabric.FramesPerCLBColumn; minor++ {
			if err := cm.WriteFrame(fabric.FAR{Block: fabric.BlockCLB, Major: col, Minor: minor}, frame); err != nil {
				return nil, err
			}
		}
	}
	w := &fuzzWorld{dev: dev, fp: fp, baseline: cm, live: cm.Clone()}
	widths := []int{4, 7, 11, 15}
	for _, a := range fp.Areas {
		asm, err := bitlinker.New(dev, a.R, cm, a.Macro)
		if err != nil {
			return nil, err
		}
		fa := &fuzzArea{
			area:     a,
			asm:      asm,
			spans:    region.Spans(dev, a.R),
			placed:   make(map[string]bitlinker.Placed),
			images:   map[string]*fabric.ConfigMemory{"": cm},
			complete: make(map[string]*bitlinker.Result),
			hasher:   w.live.Hasher(a.R),
		}
		for _, wd := range widths {
			if wd > a.R.W {
				continue
			}
			name := fmt.Sprintf("mod%d", wd)
			comp := &bitlinker.Component{
				Name:      name,
				Version:   "fuzz+" + a.R.Name,
				W:         wd,
				H:         a.R.H,
				Resources: fabric.Resources{Slices: 2 * wd * a.R.H, LUTs: wd * a.R.H, FFs: wd * a.R.H},
				Macro:     a.Macro,
				PortRow0:  a.Macro.Row0,
				CLBFrames: bitlinker.SynthesizeFrames(name, "fuzz+"+a.R.Name, wd, a.R.H),
			}
			placed := bitlinker.Placed{C: comp, ColOff: a.R.W - wd}
			res, err := asm.Assemble(placed)
			if err != nil {
				return nil, err
			}
			fa.names = append(fa.names, name)
			fa.placed[name] = placed
			fa.images[name] = asm.Target(placed)
			fa.complete[name] = res
		}
		w.areas = append(w.areas, fa)
	}
	return w, nil
}

func fuzzSetup(t interface{ Fatal(...any) }) *fuzzWorld {
	fuzzOnce.Do(func() { world, fuzzErr = buildFuzzWorld() })
	if fuzzErr != nil {
		t.Fatal(fuzzErr)
	}
	return world
}

// FuzzRegionPlanner exercises the multi-region planning and assembly path
// with fuzzed (region, resident, wanted) triples: the chosen differential
// stream must stay inside the region's own frame spans (region-relative
// offsets can never alias a sibling or the static design), reproduce the
// wanted region hash, leave the sibling region and the static image
// untouched, and agree byte-for-byte with the planner's sizing. Every
// stream also lands in one live memory, where each area's RegionHasher
// must equal RegionHash after every load.
func FuzzRegionPlanner(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(1))
	f.Add(uint8(1), uint8(4), uint8(2))
	f.Add(uint8(0), uint8(2), uint8(3))
	f.Add(uint8(1), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, ri, fromSel, toSel uint8) {
		w := fuzzSetup(t)
		fa := w.areas[int(ri)%len(w.areas)]
		sibling := w.areas[(int(ri)+1)%len(w.areas)]
		// fromSel may select the blank baseline (index == len(names)).
		from := ""
		if n := int(fromSel) % (len(fa.names) + 1); n < len(fa.names) {
			from = fa.names[n]
		}
		to := fa.names[int(toSel)%len(fa.names)]
		if from == to {
			return
		}
		res, err := fa.asm.AssembleDifferential(fa.images[from], fa.placed[to])
		if err != nil {
			// An empty differential (identical images) is the only
			// acceptable failure.
			return
		}
		// The planner must size this exact stream.
		pl := plan.New(fuzzSource{fa})
		p, err := pl.Plan(from, true, to)
		if err != nil {
			t.Fatalf("plan %q -> %q: %v", from, to, err)
		}
		if p.Kind == plan.StreamDifferential && p.Bytes != res.Stream.SizeBytes() {
			t.Fatalf("plan sized %d B, assembled stream is %d B", p.Bytes, res.Stream.SizeBytes())
		}
		// Apply the stream to the assumed image, guarded like the
		// platform's memory, and verify frame locality.
		img := fa.images[from].Clone()
		img.Guard(w.fp.Regions()...)
		if err := bitstream.NewLoader(img).Load(res.Stream); err != nil {
			t.Fatalf("loading differential %q -> %q: %v", from, to, err)
		}
		for idx := 0; idx < w.dev.NumFrames(); idx++ {
			far, err := w.dev.FARAt(idx)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := img.ReadFrame(far)
			was, _ := fa.images[from].ReadFrame(far)
			changed := false
			for i := range got {
				if got[i] != was[i] {
					changed = true
					break
				}
			}
			if changed && !region.Contains(fa.spans, idx) {
				t.Fatalf("differential %q -> %q on %s wrote frame %d (%v) outside the region's spans %v",
					from, to, fa.area.R.Name, idx, far, fa.spans)
			}
		}
		if h := img.RegionHash(fa.area.R); h != res.RegionHash {
			t.Fatalf("region hash %#x after load, assembler promised %#x", h, res.RegionHash)
		}
		if img.RegionHash(sibling.area.R) != fa.images[from].RegionHash(sibling.area.R) {
			t.Fatalf("differential %q -> %q disturbed sibling region %s", from, to, sibling.area.R.Name)
		}
		if img.Disturbed() {
			t.Fatalf("differential %q -> %q disturbed the static design", from, to)
		}
		// The incremental region hash after the same load into the live
		// memory: each area's hasher rehashes only the frames written since
		// its last look, and must still equal a full hash.
		if err := bitstream.NewLoader(w.live).Load(res.Stream); err != nil {
			t.Fatalf("loading differential %q -> %q into the live memory: %v", from, to, err)
		}
		for _, a := range w.areas {
			if got, want := a.hasher.Hash(), w.live.RegionHash(a.area.R); got != want {
				t.Fatalf("after differential %q -> %q, %s hasher = %#x, RegionHash %#x", from, to, a.area.R.Name, got, want)
			}
		}
	})
}
