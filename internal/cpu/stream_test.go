package cpu

import (
	"encoding/binary"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/fabric"
	"repro/internal/icap"
	"repro/internal/sim"
)

// icapRig wires a CPU to an HWICAP the way the boards do: PLB, bridge,
// OPB, HWICAP, configuration loader and configuration memory. guarded maps
// the device window as guarded storage, so stores to it block instead of
// posting.
type icapRig struct {
	k        *sim.Kernel
	c        *CPU
	plb, opb *bus.Bus
	br       *bus.Bridge
	hi       *icap.HWICAP
	cm       *fabric.ConfigMemory
}

const (
	rigWindow = 0x4000_0000
	rigICAP   = 0x4100_0000
)

func newICAPRig(tb testing.TB, guarded bool) *icapRig {
	tb.Helper()
	k := sim.NewKernel()
	busClk := sim.NewClock("bus", 100_000_000)
	plb := bus.New("plb", k, busClk, 8, bus.Params{ArbCycles: 2, ReadExtra: 2, BeatCycles: 1})
	opb := bus.New("opb", k, busClk, 4, bus.Params{ArbCycles: 2, ReadExtra: 1, BeatCycles: 1})
	br := bus.NewBridge(plb, opb, rigWindow, 1, 2)
	cm := fabric.NewConfigMemory(fabric.XC2VP7())
	hi := icap.New(k, busClk, bitstream.NewLoader(cm))
	if err := opb.Map(rigICAP, 0x100, hi); err != nil {
		tb.Fatal(err)
	}
	if err := plb.Map(rigWindow, 0x1000_0000, br); err != nil {
		tb.Fatal(err)
	}
	p := DefaultParams(sim.NewClock("cpu", 300_000_000))
	p.CacheSize = 0
	c := New(k, p, plb)
	if guarded {
		c.MapGuarded(rigWindow, 0x1000_0000)
	}
	return &icapRig{k: k, c: c, plb: plb, opb: opb, br: br, hi: hi, cm: cm}
}

// rigState is everything a run of stores can move on the rig, apart from
// the configuration memory's frames.
type rigState struct {
	now                   sim.Time
	cpu                   Stats
	plb, opb              [3]uint64
	bridge                [2]uint64
	icapWords             uint64
	frames, configs, crcs uint64
	loaderErr             string
}

func (r *icapRig) state() rigState {
	s := rigState{now: r.k.Now(), cpu: r.c.Stats(), icapWords: r.hi.WordsWritten()}
	s.plb[0], s.plb[1], s.plb[2] = r.plb.Stats()
	s.opb[0], s.opb[1], s.opb[2] = r.opb.Stats()
	s.bridge[0], s.bridge[1] = r.br.Stats()
	s.frames, s.configs, s.crcs = r.hi.Loader().Stats()
	if err := r.hi.Loader().Err(); err != nil {
		s.loaderErr = err.Error()
	}
	return s
}

// sameFrames reports whether two configuration memories hold equal frames.
func sameFrames(tb testing.TB, a, b *fabric.ConfigMemory) bool {
	tb.Helper()
	dev := a.Device()
	for i := range dev.NumFrames() {
		far, err := dev.FARAt(i)
		if err != nil {
			tb.Fatal(err)
		}
		fa, _ := a.ReadFrame(far)
		fb, _ := b.ReadFrame(far)
		if !slices.Equal(fa, fb) {
			return false
		}
	}
	return true
}

// checkStoreStream pushes words into the write FIFO of two identical rigs,
// by one SW per word on one and by StoreStream calls of at most chunk
// words (all of them for chunk 0) on the other, and fails unless both
// rigs end in the same state.
func checkStoreStream(t *testing.T, words []uint32, guarded, armed bool, chunk int) {
	ref, got := newICAPRig(t, guarded), newICAPRig(t, guarded)
	if armed {
		ref.hi.ArmDecoder()
		got.hi.ArmDecoder()
	}
	for _, w := range words {
		ref.c.SW(rigICAP+icap.RegWriteFIFO, w)
	}
	if chunk <= 0 {
		chunk = max(len(words), 1)
	}
	for i := 0; i < len(words); i += chunk {
		got.c.StoreStream(rigICAP+icap.RegWriteFIFO, words[i:min(i+chunk, len(words))])
	}
	ref.c.Sync()
	got.c.Sync()
	if a, b := ref.state(), got.state(); a != b {
		t.Fatalf("StoreStream state differs from per-word SW:\n per-word %+v\n stream   %+v", a, b)
	}
	if armed {
		a, b := ref.hi.DisarmDecoder(), got.hi.DisarmDecoder()
		if (a == nil) != (b == nil) || (a != nil && a.Error() != b.Error()) {
			t.Fatalf("decoder verdicts differ: per-word %v, stream %v", a, b)
		}
	}
	if !sameFrames(t, ref.cm, got.cm) {
		t.Fatal("StoreStream configuration memory differs from per-word SW")
	}
}

// rigStream builds a valid two-run configuration stream for the rig's
// device.
func rigStream(tb testing.TB) *bitstream.Stream {
	tb.Helper()
	dev := fabric.XC2VP7()
	frame := func(seed uint32) []uint32 {
		f := make([]uint32, dev.FrameLen())
		for i := range f {
			f[i] = (seed + uint32(i)) * 2654435761
		}
		return f
	}
	s, err := bitstream.Build(dev, []bitstream.FrameRun{
		{Start: fabric.FAR{Block: fabric.BlockCLB, Major: 5, Minor: 0}, Frames: [][]uint32{frame(1), frame(2), frame(3)}},
		{Start: fabric.FAR{Block: fabric.BlockBRAM, Major: 1, Minor: 7}, Frames: [][]uint32{frame(4)}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestStoreStreamMatchesPerWordSW: a configuration stream pushed with
// StoreStream leaves the rig exactly as one SW per word does, on the
// guarded (blocking) path and the posted one, whole or in chunks, with a
// compressed container through the armed decoder, and with a stream whose
// CRC check fails.
func TestStoreStreamMatchesPerWordSW(t *testing.T) {
	s := rigStream(t)
	z, err := bitstream.Compress(fabric.XC2VP7(), s, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	bad := slices.Clone(s.Words)
	bad[len(bad)/2] ^= 1 << 9
	for _, guarded := range []bool{true, false} {
		for _, chunk := range []int{0, 7, 256} {
			checkStoreStream(t, s.Words, guarded, false, chunk)
			checkStoreStream(t, z.Words, guarded, true, chunk)
			checkStoreStream(t, bad, guarded, false, chunk)
		}
	}
	r := newICAPRig(t, true)
	r.c.StoreStream(rigICAP+icap.RegWriteFIFO, bad)
	if r.hi.Loader().Err() == nil {
		t.Fatal("the damaged stream loaded cleanly")
	}
}

// FuzzStoreStream pushes arbitrary words through the PLB, bridge, OPB,
// HWICAP and loader, by StoreStream and by one SW per word, on guarded and
// posted windows, with and without the decoder armed: both must leave
// identical kernel time, counters, loader state and frames.
func FuzzStoreStream(f *testing.F) {
	s := rigStream(f)
	data := make([]byte, 4*len(s.Words))
	for i, w := range s.Words {
		binary.BigEndian.PutUint32(data[4*i:], w)
	}
	f.Add(data, true, false, uint8(0))
	f.Add(data, false, false, uint8(5))
	f.Add(data[:len(data)/2], true, true, uint8(64))
	f.Fuzz(func(t *testing.T, data []byte, guarded, armed bool, chunk uint8) {
		words := make([]uint32, len(data)/4)
		for i := range words {
			words[i] = binary.BigEndian.Uint32(data[4*i:])
		}
		checkStoreStream(t, words, guarded, armed, int(chunk))
	})
}

// Steady-state posted stores reuse the write buffer's backing array.
// Re-slicing from the front would shrink its capacity until append
// reallocates every few stores. testing.AllocsPerRun rounds such a
// fractional rate down to zero, so the test counts mallocs over the whole
// run.
func TestPostedStoresDoNotAllocate(t *testing.T) {
	_, c, _ := rig(false)
	store := func(n int) {
		for i := 0; i < n; i++ {
			c.SW(uint32(0x8_0000+4*(i%16)), uint32(i))
		}
	}
	store(100) // warm up: memory pages and the buffer's first array
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	store(10_000)
	runtime.ReadMemStats(&after)
	if c.Stats().PostedStalls == 0 {
		t.Fatal("no posted-write stalls: the write buffer never filled")
	}
	if n := after.Mallocs - before.Mallocs; n > 100 {
		t.Errorf("10000 posted stores made %d mallocs, want at most 100", n)
	}
}
