package icap

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/sim"
)

// dmaFixture returns a device image and two compressed containers: c1
// rewrites bands of three of the image's frames, c2 rewrites them again
// from c1's result. Both keep most words by CM reference.
func dmaFixture(t *testing.T) (base *fabric.ConfigMemory, c1, c2 *bitstream.Compressed) {
	t.Helper()
	dev := fabric.XC2VP7()
	rng := rand.New(rand.NewSource(3))
	fars := []fabric.FAR{
		{Block: fabric.BlockCLB, Major: 2, Minor: 0},
		{Block: fabric.BlockCLB, Major: 2, Minor: 1},
		{Block: fabric.BlockCLB, Major: 9, Minor: 4},
	}
	base = fabric.NewConfigMemory(dev)
	for _, far := range fars {
		f := make([]uint32, dev.FrameLen())
		for i := range f {
			f[i] = rng.Uint32()
		}
		if err := base.WriteFrame(far, f); err != nil {
			t.Fatal(err)
		}
	}
	// next compresses a band change of every fixture frame against from and
	// returns the container and the image it leaves.
	next := func(from *fabric.ConfigMemory) (*bitstream.Compressed, *fabric.ConfigMemory) {
		var runs []bitstream.FrameRun
		for _, far := range fars {
			f, _ := from.ReadFrame(far)
			for i := len(f) / 3; i < len(f)/2; i++ {
				f[i] = rng.Uint32()
			}
			runs = append(runs, bitstream.FrameRun{Start: far, Frames: [][]uint32{f}})
		}
		s, err := bitstream.Build(dev, runs)
		if err != nil {
			t.Fatal(err)
		}
		c, err := bitstream.Compress(dev, s, from, len(runs))
		if err != nil {
			t.Fatal(err)
		}
		to := from.Clone()
		if err := bitstream.NewLoader(to).Load(s); err != nil {
			t.Fatal(err)
		}
		return c, to
	}
	c1, t1 := next(base)
	c2, _ = next(t1)
	return base, c1, c2
}

// perWordFeed is a DMA transfer's content fed one container word at a
// time: stop after the first word that leaves the decoder or the loader
// with an error, then require a complete container and sequence.
func perWordFeed(l *bitstream.Loader, words []uint32) error {
	dec := bitstream.NewDecoder(l)
	for _, w := range words {
		if _, err := dec.WriteWord(w); err != nil {
			return err
		}
		if err := l.Err(); err != nil {
			return err
		}
	}
	if !dec.Done() {
		return fmt.Errorf("icap: dma: compressed container incomplete (%d words decoded)", dec.Emitted())
	}
	if !l.Done() {
		return fmt.Errorf("icap: dma: configuration sequence did not complete")
	}
	return nil
}

func sameFrames(t *testing.T, what string, a, b *fabric.ConfigMemory) {
	t.Helper()
	dev := a.Device()
	for i := 0; i < dev.NumFrames(); i++ {
		far, _ := dev.FARAt(i)
		fa, _ := a.ReadFrame(far)
		fb, _ := b.ReadFrame(far)
		for j := range fa {
			if fa[j] != fb[j] {
				t.Fatalf("%s: frame %v word %d is %#08x, want %#08x", what, far, j, fb[j], fa[j])
			}
		}
	}
}

// hugeContainer declares 2^28 raw words and expands one RUN of 2^20 dummy
// words, which the loader ignores before sync: a damaged header that makes
// the decoder's output buffer grow to 4 MiB before the container ends
// incomplete.
func hugeContainer() []uint32 {
	return []uint32{bitstream.CompressedMagic, 1 << 28, 0, 0x52<<24 | 1<<20, bitstream.DummyWord}
}

// TestDMADamagedContainerFailsAsPerWordFeed sends damaged containers
// through DMA.Begin: each must return the error the word-by-word feed
// returns, reset the loader, leave the port window and Stats standing and
// drop the engine's decoder.
func TestDMADamagedContainerFailsAsPerWordFeed(t *testing.T) {
	base, c1, _ := dmaFixture(t)
	damage := map[string][]uint32{"truncated": c1.Words[:len(c1.Words)-1], "huge raw count": hugeContainer()}
	for i := range c1.Words {
		for _, bit := range []uint{0, 13, 28} {
			words := append([]uint32(nil), c1.Words...)
			words[i] ^= 1 << bit
			damage[fmt.Sprintf("bit %d of word %d", bit, i)] = words
		}
	}
	failed := 0
	for what, words := range damage {
		want := perWordFeed(bitstream.NewLoader(base.Clone()), words)
		k := sim.NewKernel()
		clk := sim.NewClock("plb", 100_000_000)
		l := bitstream.NewLoader(base.Clone())
		eng := NewDMA(k, clk, l)
		start, done, err := eng.Begin(words, true)
		if fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("%s: Begin = %v, per-word feed %v", what, err, want)
		}
		if done-start != clk.Cycles(uint64(dmaSetupCycles+4*len(words))) {
			t.Fatalf("%s: port window %v for %d words", what, done-start, len(words))
		}
		if n, w := eng.Stats(); n != 1 || w != uint64(len(words)) {
			t.Fatalf("%s: Stats = %d transfers, %d words", what, n, w)
		}
		if err == nil {
			continue
		}
		failed++
		if l.Err() != nil || l.Done() {
			t.Fatalf("%s: loader not reset after a failed transfer (err %v, done %v)", what, l.Err(), l.Done())
		}
		if eng.dec != nil {
			t.Fatalf("%s: a failed transfer kept its decoder and %d decoded words", what, eng.dec.Emitted())
		}
	}
	if failed < len(damage)/2 {
		t.Fatalf("only %d of %d damaged containers failed", failed, len(damage))
	}
}

// TestDMAReusedDecoderCarriesNothingOver runs clean, failed and clean
// transfers through one engine: each clean one must leave exactly the
// frames a fresh decoder leaves.
func TestDMAReusedDecoderCarriesNothingOver(t *testing.T) {
	base, c1, c2 := dmaFixture(t)
	got, want := base.Clone(), base.Clone()
	eng := NewDMA(sim.NewKernel(), sim.NewClock("plb", 100_000_000), bitstream.NewLoader(got))
	badOp := append([]uint32(nil), c1.Words...)
	badOp[3] = 0xEE << 24
	for _, step := range []struct {
		what  string
		words []uint32
		clean *bitstream.Compressed
	}{
		{"first container", c1.Words, c1},
		{"bad opcode", badOp, nil},
		{"huge raw count", hugeContainer(), nil},
		{"second container after failures", c2.Words, c2},
	} {
		_, _, err := eng.Begin(step.words, true)
		if step.clean == nil {
			if err == nil {
				t.Fatalf("%s: transfer succeeded", step.what)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		if err := step.clean.Decode(bitstream.NewLoader(want)); err != nil {
			t.Fatal(err)
		}
		sameFrames(t, step.what, want, got)
	}
	// A clean transfer straight after a clean one reuses the decoder.
	got, want = base.Clone(), base.Clone()
	eng = NewDMA(sim.NewKernel(), sim.NewClock("plb", 100_000_000), bitstream.NewLoader(got))
	for _, c := range []*bitstream.Compressed{c1, c2} {
		if _, _, err := eng.Begin(c.Words, true); err != nil {
			t.Fatal(err)
		}
		if err := c.Decode(bitstream.NewLoader(want)); err != nil {
			t.Fatal(err)
		}
		sameFrames(t, "back-to-back containers", want, got)
	}
}

// TestDisarmAfterResetReportsIncomplete: a reset while the decoder is
// armed takes it out of the FIFO path, and DisarmDecoder reports the
// container it cut short, not a clean decode. Re-arming decodes afresh.
func TestDisarmAfterResetReportsIncomplete(t *testing.T) {
	base, c1, _ := dmaFixture(t)
	l := bitstream.NewLoader(base.Clone())
	h := New(sim.NewKernel(), sim.NewClock("opb", 50_000_000), l)
	h.ArmDecoder()
	for _, w := range c1.Words[:len(c1.Words)/2] {
		h.Write(RegWriteFIFO, uint64(w), 4)
	}
	h.Write(RegControl, CtrlReset, 4)
	if st, _ := h.Read(RegStatus, 4); st&StatError != 0 {
		t.Fatal("error status after a reset")
	}
	// After the reset, FIFO words reach the loader undecoded: a raw stream
	// rewriting one frame with the content it has completes.
	far := fabric.FAR{Block: fabric.BlockCLB, Major: 2, Minor: 0}
	f, _ := base.ReadFrame(far)
	raw, err := bitstream.Build(base.Device(), []bitstream.FrameRun{{Start: far, Frames: [][]uint32{f}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range raw.Words {
		h.Write(RegWriteFIFO, uint64(w), 4)
	}
	if !l.Done() || l.Err() != nil {
		t.Fatalf("raw stream after the reset: done %v, err %v", l.Done(), l.Err())
	}
	if err := h.DisarmDecoder(); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("DisarmDecoder after a reset = %v, want an incomplete container", err)
	}
	if err := h.DisarmDecoder(); err != nil {
		t.Fatalf("second DisarmDecoder = %v, want nil", err)
	}
	h.ArmDecoder()
	for _, w := range c1.Words {
		h.Write(RegWriteFIFO, uint64(w), 4)
	}
	if err := h.DisarmDecoder(); err != nil {
		t.Fatalf("a full container after re-arming: %v", err)
	}
}

// TestDisarmDropsFailedDecoder: a container that fails leaves the HWICAP
// no decoder, and with it no output buffer, however large its header.
func TestDisarmDropsFailedDecoder(t *testing.T) {
	base, _, _ := dmaFixture(t)
	h := New(sim.NewKernel(), sim.NewClock("opb", 50_000_000), bitstream.NewLoader(base.Clone()))
	h.ArmDecoder()
	for _, w := range hugeContainer() {
		h.Write(RegWriteFIFO, uint64(w), 4)
	}
	if err := h.DisarmDecoder(); err == nil {
		t.Fatal("an incomplete container disarmed clean")
	}
	if h.dec != nil {
		t.Fatalf("a failed container kept its decoder and %d decoded words", h.dec.Emitted())
	}
}
