package bitstream_test

import (
	"slices"
	"testing"

	"repro/internal/bitlinker"
	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/hwcore"
	"repro/internal/platform"
)

// foldRig is one board's configuration memory loaded twice over: by the
// loader under test, fed as a load path feeds it, and by a reference
// loader that folds every word into its CRC as it arrives.
type foldRig struct {
	t       *testing.T
	cm, rcm *fabric.ConfigMemory
	l, ref  *bitstream.Loader
}

func newFoldRig(t *testing.T, sys *platform.System) *foldRig {
	r := &foldRig{t: t, cm: sys.CM.Clone(), rcm: sys.CM.Clone()}
	r.cm.Guard(sys.Floorplan.Regions()...)
	r.rcm.Guard(sys.Floorplan.Regions()...)
	r.l, r.ref = bitstream.NewLoader(r.cm), bitstream.NewLoader(r.rcm)
	return r
}

// cpuFeed feeds ws as cpu.StoreStream hands them to the HWICAP: the first
// word of an FDRI run by WriteWord, the rest in WriteWords calls that
// break at every 256th word, where the abort poll falls.
func cpuFeed(l *bitstream.Loader, ws []uint32) {
	skipping := false
	for i := 0; i < len(ws); {
		run := min(l.Inert(), 256-i%256, len(ws)-i)
		switch {
		case skipping && run > 0:
			l.WriteWords(ws[i : i+run])
		case run > 1:
			_ = l.WriteWord(ws[i])
			l.WriteWords(ws[i+1 : i+run])
			skipping = true
		default:
			_ = l.WriteWord(ws[i]) // sticky, as on the HWICAP
			run, skipping = 1, false
		}
		i += run
	}
}

// A foldPath feeds raw streams and containers as one load path does: the
// CPU's stores (one container word at a time through the armed HWICAP) or
// a dock DMA engine (one Write per transfer).
type foldPath struct {
	name      string
	raw       func(l *bitstream.Loader, ws []uint32)
	container func(d *bitstream.Decoder, ws []uint32)
}

var foldPaths = []foldPath{
	{"cpu", cpuFeed, func(d *bitstream.Decoder, ws []uint32) {
		for _, w := range ws {
			_, _ = d.WriteWord(w) // sticky: the status register reports it
		}
	}},
	{"dma", func(l *bitstream.Loader, ws []uint32) { _, _ = l.Write(ws) },
		func(d *bitstream.Decoder, ws []uint32) { _, _ = d.Write(ws) }},
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// check fails unless both loaders report the same error, completion,
// Stats and CRC, and both memories the same frames and guard verdict.
func (r *foldRig) check(what string) {
	r.t.Helper()
	if a, b := errText(r.l.Err()), errText(r.ref.Err()); a != b {
		r.t.Fatalf("%s: loader error %q, per-word %q", what, a, b)
	}
	if a, b := r.l.Done(), r.ref.Done(); a != b {
		r.t.Fatalf("%s: loader done %v, per-word %v", what, a, b)
	}
	f1, c1, e1 := r.l.Stats()
	f2, c2, e2 := r.ref.Stats()
	if [3]uint64{f1, c1, e1} != [3]uint64{f2, c2, e2} {
		r.t.Fatalf("%s: loader stats %v, per-word %v", what, [3]uint64{f1, c1, e1}, [3]uint64{f2, c2, e2})
	}
	if a, b := bitstream.FoldedCRC(r.l), bitstream.FoldedCRC(r.ref); a != b {
		r.t.Fatalf("%s: loader CRC %#04x, per-word %#04x", what, a, b)
	}
	if a, b := r.cm.Disturbed(), r.rcm.Disturbed(); a != b {
		r.t.Fatalf("%s: guard disturbed %v, per-word %v", what, a, b)
	}
	dev := r.cm.Device()
	var fa, fb []uint32
	for i := range dev.NumFrames() {
		far, _ := dev.FARAt(i)
		fa, _ = r.cm.AppendFrame(fa[:0], far, 0, dev.FrameLen())
		fb, _ = r.rcm.AppendFrame(fb[:0], far, 0, dev.FrameLen())
		if !slices.Equal(fa, fb) {
			r.t.Fatalf("%s: frame %v differs from the per-word load's", what, far)
		}
	}
}

// loadRaw loads ws on both loaders, by path on the loader under test.
func (r *foldRig) loadRaw(what string, ws []uint32, path foldPath) {
	r.t.Helper()
	path.raw(r.l, ws)
	bitstream.LoadPerWord(r.ref, ws)
	r.check(what)
}

// loadContainer decodes container on both loaders, by path on the loader
// under test and through the reference decoder on the other, and fails
// unless both decoders agree too.
func (r *foldRig) loadContainer(what string, container []uint32, path foldPath) (*bitstream.Decoder, *bitstream.RefDecoder) {
	r.t.Helper()
	d, rd := bitstream.NewDecoder(r.l), bitstream.NewRefDecoder(r.ref)
	path.container(d, container)
	for _, w := range container {
		_, _ = rd.WriteWord(w)
	}
	r.checkDecoders(what, d, rd)
	return d, rd
}

func (r *foldRig) checkDecoders(what string, d *bitstream.Decoder, rd *bitstream.RefDecoder) {
	r.t.Helper()
	if a, b := errText(d.Err()), errText(rd.Err()); a != b || d.Done() != rd.Done() {
		r.t.Fatalf("%s: decoder error %q done %v, reference %q %v", what, a, d.Done(), b, rd.Done())
	}
	if a, b := bitstream.ContainerCRC(d), rd.CRC(); a != b {
		r.t.Fatalf("%s: container CRC %#04x, per-word %#04x", what, a, b)
	}
	r.check(what)
}

// clean fails unless the reference load completed cleanly.
func (r *foldRig) clean(what string) {
	r.t.Helper()
	if err := r.ref.Err(); err != nil || !r.ref.Done() || r.rcm.Disturbed() {
		r.t.Fatalf("%s: the load did not complete cleanly: error %v, done %v, disturbed %v", what, err, r.ref.Done(), r.rcm.Disturbed())
	}
}

// foldArea is one region of a board with the assembler and the modules
// that fit it.
type foldArea struct {
	sys  *platform.System
	r    fabric.Region
	asm  *bitlinker.Assembler
	mods []bitlinker.Placed
}

func newFoldArea(t *testing.T, sys *platform.System, ri int) foldArea {
	t.Helper()
	area := sys.Floorplan.Areas[ri]
	asm, err := bitlinker.New(sys.Dev, area.R, sys.CM.Clone(), area.Macro)
	if err != nil {
		t.Fatal(err)
	}
	a := foldArea{sys: sys, r: area.R, asm: asm}
	for _, spec := range hwcore.Specs() {
		c, err := hwcore.BuildComponent(spec, sys.Dev, area.R, area.Macro)
		if err != nil {
			continue // the module does not fit the region
		}
		a.mods = append(a.mods, bitlinker.Placed{C: c, ColOff: area.R.W - c.W})
	}
	if len(a.mods) < 2 {
		t.Fatalf("%s: %d modules fit", area.R.Name, len(a.mods))
	}
	return a
}

func (a foldArea) complete(t *testing.T, p bitlinker.Placed) []uint32 {
	t.Helper()
	res, err := a.asm.Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	return res.Stream.Words
}

// diff returns the differential from module from to module to, raw and
// compressed against from's image.
func (a foldArea) diff(t *testing.T, from, to bitlinker.Placed) ([]uint32, *bitstream.Compressed) {
	t.Helper()
	assumed := a.asm.Target(from)
	res, err := a.asm.AssembleDifferential(assumed, to)
	if err != nil {
		t.Fatal(err)
	}
	z, err := bitstream.Compress(a.sys.Dev, res.Stream, assumed, res.Frames)
	if err != nil {
		t.Fatal(err)
	}
	return res.Stream.Words, z
}

func foldBoards(t *testing.T) []*platform.System {
	t.Helper()
	var out []*platform.System
	for _, mk := range []func() (*platform.System, error){
		platform.NewSys32, platform.NewSys64, func() (*platform.System, error) { return platform.NewSys64N(2) },
	} {
		sys, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sys)
	}
	return out
}

// TestFrameFoldMatchesPerWord: the loader folds FDRI frame data into its
// CRC, and a decoder's container CRC, as each frame commits, the static
// words of a guarded frame as one term. On every region of NewSys32,
// NewSys64 and NewSys64N(2), every module's complete stream, and the
// differential to the next module raw and compressed, loaded by CPU
// stores and by DMA, must leave the loader's and the container's CRC,
// error, completion, Stats and frames exactly as the per-word fold does,
// and each load must complete cleanly. The per-frame term must engage.
func TestFrameFoldMatchesPerWord(t *testing.T) {
	for _, sys := range foldBoards(t) {
		for ri := range sys.Floorplan.Areas {
			a := newFoldArea(t, sys, ri)
			for _, path := range foldPaths {
				r := newFoldRig(t, sys)
				for k, from := range a.mods {
					to := a.mods[(k+1)%len(a.mods)]
					what := sys.Name + " " + a.r.Name + " " + path.name + " " + from.C.Name
					complete := a.complete(t, from)
					raw, z := a.diff(t, from, to)
					r.loadRaw(what+" complete", complete, path)
					r.clean(what + " complete")
					r.loadRaw(what+" differential to "+to.C.Name, raw, path)
					r.clean(what + " differential")
					r.loadRaw(what+" complete again", complete, path)
					if d, _ := r.loadContainer(what+" compressed to "+to.C.Name, z.Words, path); !d.Done() {
						t.Fatalf("%s: container incomplete: %v", what, d.Err())
					}
					r.clean(what + " compressed")
				}
				if bitstream.TermFrames(r.l) == 0 {
					t.Fatalf("%s %s %s: no frame folded as a term", sys.Name, a.r.Name, path.name)
				}
			}
		}
	}
}

// frameStream builds a valid stream that writes the region's first n
// frames with the memory's content, every band word xored with seed,
// after edit has changed the frames as it likes. It returns the stream and
// where each frame's data starts in it.
func frameStream(t *testing.T, cm *fabric.ConfigMemory, r fabric.Region, n int, seed uint32, edit func([][]uint32)) ([]uint32, []int) {
	t.Helper()
	dev := cm.Device()
	lo, hi := dev.RowWordRange(r.Row0, r.H)
	start := fabric.FAR{Block: fabric.BlockCLB, Major: r.Col0}
	frames := make([][]uint32, n)
	for k := range frames {
		far := fabric.FAR{Block: fabric.BlockCLB, Major: r.Col0, Minor: k}
		f, err := cm.ReadFrame(far)
		if err != nil {
			t.Fatal(err)
		}
		for i := lo; i < hi; i++ {
			f[i] ^= seed * uint32(2*i+k+1)
		}
		frames[k] = f
	}
	if edit != nil {
		edit(frames)
	}
	s, err := bitstream.Build(dev, []bitstream.FrameRun{{Start: start, Frames: frames}})
	if err != nil {
		t.Fatal(err)
	}
	offs := make([]int, n)
	for k, f := range frames {
		offs[k] = -1
		for i := range len(s.Words) - len(f) + 1 {
			if slices.Equal(s.Words[i:i+len(f)], f) {
				offs[k] = i
				break
			}
		}
		if offs[k] < 0 {
			t.Fatalf("frame %d not found in its stream", k)
		}
	}
	return s.Words, offs
}

// literal is a container that carries ws as one literal run.
func literal(ws []uint32) []uint32 {
	const opLit = 0x4C
	head := []uint32{bitstream.CompressedMagic, uint32(len(ws)), uint32(bitstream.FrameCRC(0, ws)), opLit<<24 | uint32(len(ws))}
	return append(head, ws...)
}

// TestFrameFoldEdgeCases: the per-frame fold against the per-word fold
// where a CRC is observed mid-packet or the guard does not hold, on
// region 0 of NewSys64N(2) and of NewSys32 after a complete load has
// taken the terms of its frames:
//   - a frame whose static word differs from the memory's, in a stream
//     whose CRC covers it: the guard trips, the load still completes;
//   - a static word or a band word flipped in a stream: the CRC check
//     fails, as it does word by word;
//   - a container whose raw words end inside an FDRI packet, the rest of
//     the stream following raw;
//   - a loader Reset mid-packet, on a raw stream and under a container;
//   - Guard run again, with new static content, between two loads;
//   - a container decoded while the guard stays tripped from earlier, so
//     every frame folds both CRCs word by word.
func TestFrameFoldEdgeCases(t *testing.T) {
	for _, sys := range foldBoards(t) {
		if sys.Name == "sys64" {
			continue // sys64x2's region 0 is the same region
		}
		a := newFoldArea(t, sys, 0)
		lo, _ := sys.Dev.RowWordRange(a.r.Row0, a.r.H)
		warm := func(t *testing.T, path foldPath) *foldRig {
			r := newFoldRig(t, sys)
			r.loadRaw("warm-up", a.complete(t, a.mods[0]), path)
			r.clean("warm-up")
			if bitstream.TermFrames(r.l) == 0 {
				t.Fatal("the warm-up took no frame term")
			}
			return r
		}
		for _, path := range foldPaths {
			t.Run(sys.Name+"/"+path.name, func(t *testing.T) {
				r := warm(t, path)
				ws, _ := frameStream(t, r.cm, a.r, 4, 0x9E3779B9, func(fs [][]uint32) { fs[1][0] ^= 1 << 7 })
				r.loadRaw("static word changed under a valid CRC", ws, path)
				if r.ref.Err() != nil || !r.rcm.Disturbed() {
					t.Fatalf("static word changed: error %v, disturbed %v; want no error and a tripped guard", r.ref.Err(), r.rcm.Disturbed())
				}

				for _, flip := range []struct {
					what string
					word int
				}{{"static word flipped", 0}, {"band word flipped", lo + 1}} {
					r := warm(t, path)
					ws, offs := frameStream(t, r.cm, a.r, 4, 0x85EBCA6B, nil)
					ws[offs[2]+flip.word] ^= 1 << 3
					r.loadRaw(flip.what, ws, path)
					if r.ref.Err() == nil || r.rcm.Disturbed() != (flip.word < lo) {
						t.Fatalf("%s: error %v, disturbed %v", flip.what, r.ref.Err(), r.rcm.Disturbed())
					}
				}

				r = warm(t, path)
				ws, offs := frameStream(t, r.cm, a.r, 4, 0xC2B2AE35, nil)
				cut := offs[1] + 5
				d, _ := r.loadContainer("container ending mid-packet", literal(ws[:cut]), path)
				if !d.Done() {
					t.Fatalf("container ending mid-packet: %v", d.Err())
				}
				r.loadRaw("the rest of the stream", ws[cut:], path)
				r.clean("the rest of the stream")

				r = warm(t, path)
				ws, offs = frameStream(t, r.cm, a.r, 4, 0x27D4EB2F, nil)
				cut = offs[2] + 9
				path.raw(r.l, ws[:cut])
				bitstream.LoadPerWord(r.ref, ws[:cut])
				r.l.Reset()
				r.ref.Reset()
				r.loadRaw("full stream after a Reset mid-packet", ws, path)
				r.clean("full stream after a Reset mid-packet")

				container := literal(ws)
				d, rd := bitstream.NewDecoder(r.l), bitstream.NewRefDecoder(r.ref)
				path.container(d, container[:4+cut])
				for _, w := range container[:4+cut] {
					_, _ = rd.WriteWord(w)
				}
				r.l.Reset()
				r.ref.Reset()
				path.container(d, container[4+cut:])
				for _, w := range container[4+cut:] {
					_, _ = rd.WriteWord(w)
				}
				r.checkDecoders("container across a Reset mid-packet", d, rd)
				if !d.Done() {
					t.Fatalf("container across a Reset mid-packet: %v", d.Err())
				}

				r = warm(t, path)
				ws, _ = frameStream(t, r.cm, a.r, 4, 0x165667B1, nil)
				r.loadRaw("before the second Guard", ws, path)
				r.clean("before the second Guard")
				far := fabric.FAR{Block: fabric.BlockCLB, Major: a.r.Col0, Minor: 2}
				for _, cm := range []*fabric.ConfigMemory{r.cm, r.rcm} {
					if err := cm.FlipBit(far, 1, 5); err != nil {
						t.Fatal(err)
					}
					cm.Guard(sys.Floorplan.Regions()...)
				}
				ws, _ = frameStream(t, r.cm, a.r, 4, 0xD3A2646C, nil)
				r.loadRaw("after the second Guard", ws, path)
				r.clean("after the second Guard")

				r = warm(t, path)
				_, z := a.diff(t, a.mods[0], a.mods[1])
				static := fabric.FAR{Block: fabric.BlockCLB, Major: 0}
				for _, cm := range []*fabric.ConfigMemory{r.cm, r.rcm} {
					if err := cm.FlipBit(static, 0, 0); err != nil {
						t.Fatal(err)
					}
				}
				if d, _ := r.loadContainer("container under a tripped guard", z.Words, path); !d.Done() {
					t.Fatalf("container under a tripped guard: %v", d.Err())
				}
			})
		}
	}
}
