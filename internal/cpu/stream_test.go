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
	seen     []rigState // the states that events scheduled by at found
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
	inert                 int
	loaderErr             string
}

func (r *icapRig) state() rigState {
	s := rigState{now: r.k.Now(), cpu: r.c.Stats(), icapWords: r.hi.WordsWritten(), inert: r.hi.Loader().Inert()}
	s.plb[0], s.plb[1], s.plb[2] = r.plb.Stats()
	s.opb[0], s.opb[1], s.opb[2] = r.opb.Stats()
	s.bridge[0], s.bridge[1] = r.br.Stats()
	s.frames, s.configs, s.crcs = r.hi.Loader().Stats()
	if err := r.hi.Loader().Err(); err != nil {
		s.loaderErr = err.Error()
	}
	return s
}

// at schedules an event d from now that records the rig's state and then,
// as a second bus master, posts a write to the HWICAP control register:
// it moves the PLB, the bridge and the OPB under a running stream.
func (r *icapRig) at(d sim.Time) {
	r.k.Schedule(d, func() {
		r.seen = append(r.seen, r.state())
		if _, err := r.plb.WritePosted(rigICAP+icap.RegControl, 0, 4); err != nil {
			panic(err)
		}
	})
}

// wordEnd is when the SW of words[j] ends on a fresh rig, if the words
// before it were stored one SW at a time.
func wordEnd(tb testing.TB, words []uint32, guarded bool, j int) sim.Time {
	r := newICAPRig(tb, guarded)
	for _, w := range words[:j+1] {
		r.c.SW(rigICAP+icap.RegWriteFIFO, w)
	}
	return r.k.Now()
}

// tail reads the status register, stores two more words one SW at a time
// and reads it again. A busy-until mark or post-queue entry a stream left
// wrong shows in the time these take or in the busy bit.
func (r *icapRig) tail() [2]uint32 {
	first := r.c.LW(rigICAP + icap.RegStatus)
	r.c.SW(rigICAP+icap.RegWriteFIFO, bitstream.DummyWord)
	r.c.SW(rigICAP+icap.RegWriteFIFO, bitstream.DummyWord)
	return [2]uint32{first, r.c.LW(rigICAP + icap.RegStatus)}
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
// by one SW per word on one and by one StoreStream on the other, whose
// stop is polled every chunk words (never for chunk 0) and never trips,
// with an event due eventAt from the start on both. It fails unless the
// stop is polled before exactly the words a chunked push polls before,
// the event finds both rigs in the same state, a status read, two more
// SWs and another read then agree, and both rigs end in the same state.
// It returns the states the per-word rig's event found.
func checkStoreStream(t *testing.T, words []uint32, guarded, armed bool, chunk int, eventAt sim.Time) []rigState {
	ref, got := newICAPRig(t, guarded), newICAPRig(t, guarded)
	for _, r := range []*icapRig{ref, got} {
		if armed {
			r.hi.ArmDecoder()
		}
		r.at(eventAt)
	}
	for _, w := range words {
		ref.c.SW(rigICAP+icap.RegWriteFIFO, w)
	}
	var polled []uint64
	stop := func() bool {
		polled = append(polled, got.hi.WordsWritten())
		return false
	}
	if n := got.c.StoreStream(rigICAP+icap.RegWriteFIFO, words, stop, chunk); n != len(words) {
		t.Fatalf("StoreStream stored %d of %d words", n, len(words))
	}
	var want []uint64
	for i := chunk; chunk > 0 && i < len(words); i += chunk {
		want = append(want, uint64(i))
	}
	if !slices.Equal(polled, want) {
		t.Fatalf("stop polled after words %v, want %v", polled, want)
	}
	if armed {
		a, b := ref.hi.DisarmDecoder(), got.hi.DisarmDecoder()
		if (a == nil) != (b == nil) || (a != nil && a.Error() != b.Error()) {
			t.Fatalf("decoder verdicts differ: per-word %v, stream %v", a, b)
		}
	}
	if a, b := ref.tail(), got.tail(); a != b {
		t.Fatalf("status after the stream: per-word %#x, stream %#x", a, b)
	}
	ref.c.Sync()
	got.c.Sync()
	if a, b := ref.state(), got.state(); a != b {
		t.Fatalf("StoreStream state differs from per-word SW:\n per-word %+v\n stream   %+v", a, b)
	}
	if !slices.Equal(ref.seen, got.seen) {
		t.Fatalf("the event found different states:\n per-word %+v\n stream   %+v", ref.seen, got.seen)
	}
	if !sameFrames(t, ref.cm, got.cm) {
		t.Fatal("StoreStream configuration memory differs from per-word SW")
	}
	return ref.seen
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
// guarded (blocking) path and the posted one, with its stop polled every
// 7 or 256 words or never, with a compressed container through the armed decoder, and with a stream whose
// CRC check fails. An event due in the middle of the frame data, between
// two words' steps or right as one word's store ends, finds both rigs in
// the same state.
func TestStoreStreamMatchesPerWordSW(t *testing.T) {
	s := rigStream(t)
	z, err := bitstream.Compress(fabric.XC2VP7(), s, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	bad := slices.Clone(s.Words)
	bad[len(bad)/2] ^= 1 << 9
	const mid = 10*sim.Microsecond + 7 // between two words' steps
	for _, guarded := range []bool{true, false} {
		for _, chunk := range []int{0, 7, 256} {
			for _, at := range []sim.Time{mid, wordEnd(t, s.Words, guarded, 300)} {
				if seen := checkStoreStream(t, s.Words, guarded, false, chunk, at); len(seen) != 1 ||
					seen[0].icapWords < 100 || seen[0].icapWords > uint64(len(s.Words)-100) || seen[0].inert == 0 {
					t.Fatalf("the event found %+v, want one state in mid frame data", seen)
				}
			}
			checkStoreStream(t, z.Words, guarded, true, chunk, mid)
			checkStoreStream(t, bad, guarded, false, chunk, mid)
		}
	}
	r := newICAPRig(t, true)
	r.c.StoreStream(rigICAP+icap.RegWriteFIFO, bad, nil, 0)
	if r.hi.Loader().Err() == nil {
		t.Fatal("the damaged stream loaded cleanly")
	}
}

// FuzzStoreStream pushes arbitrary words through the PLB, bridge, OPB,
// HWICAP and loader, by StoreStream and by one SW per word, on guarded and
// posted windows, with and without the decoder armed, with an event due at
// an arbitrary picosecond: both must leave identical kernel time,
// counters, loader state and frames, and the event must find both in the
// same state.
func FuzzStoreStream(f *testing.F) {
	s := rigStream(f)
	data := make([]byte, 4*len(s.Words))
	for i, w := range s.Words {
		binary.BigEndian.PutUint32(data[4*i:], w)
	}
	f.Add(data, true, false, uint8(0), uint32(9_000_001))
	f.Add(data, false, false, uint8(5), uint32(4_000_003))
	f.Add(data[:len(data)/2], true, true, uint8(64), uint32(2_500_000))
	f.Fuzz(func(t *testing.T, data []byte, guarded, armed bool, chunk uint8, eventPs uint32) {
		words := make([]uint32, len(data)/4)
		for i := range words {
			words[i] = binary.BigEndian.Uint32(data[4*i:])
		}
		checkStoreStream(t, words, guarded, armed, int(chunk), sim.Time(eventPs)*sim.Picosecond)
	})
}

// fakeFIFO is a write FIFO every word of which is inert. It takes each
// word with a fixed wait, drains it in 4 PLB cycles, and counts how its
// words arrive: one Write at a time or in bulk.
type fakeFIFO struct {
	k         *sim.Kernel
	drain     sim.Time
	waits     int
	busyUntil sim.Time
	words     uint64
	perWord   int
	bulk      int
}

func (f *fakeFIFO) Name() string                             { return "fake-fifo" }
func (f *fakeFIFO) Read(addr uint32, size int) (uint64, int) { return 0, 1 }
func (f *fakeFIFO) Write(addr uint32, val uint64, size int) int {
	f.perWord++
	f.words++
	f.busyUntil = max(f.busyUntil, f.k.Now()) + f.drain
	return f.waits
}
func (f *fakeFIFO) WriteStream(addr uint32, size int) bus.Sink { return fakeSink{f} }

type fakeSink struct{ f *fakeFIFO }

func (s fakeSink) Write(val uint64) int { return s.f.Write(0, val, 4) }
func (s fakeSink) Inert() int           { return 1 << 30 }
func (s fakeSink) Record(ch *sim.Chain) {
	ch.Time(&s.f.busyUntil)
	ch.Count(&s.f.words)
}
func (s fakeSink) WriteWords(ws []uint32) { s.f.bulk += len(ws) }

// fakeRig is a CPU storing through a PLB, the bridge and an OPB into a
// fakeFIFO.
type fakeRig struct {
	k    *sim.Kernel
	c    *CPU
	plb  *bus.Bus
	fifo *fakeFIFO
}

// fakeConfig sets a fakeRig's window, clocks and FIFO wait cycles.
type fakeConfig struct {
	guarded             bool
	cpuHz, plbHz, opbHz uint64
	waits               int
}

func newFakeRig(t *testing.T, fc fakeConfig) *fakeRig {
	r := &fakeRig{k: sim.NewKernel()}
	plbClk := sim.NewClock("plb", fc.plbHz)
	r.plb = bus.New("plb", r.k, plbClk, 8, bus.Params{ArbCycles: 2, ReadExtra: 2, BeatCycles: 1})
	opb := bus.New("opb", r.k, sim.NewClock("opb", fc.opbHz), 4, bus.Params{ArbCycles: 2, ReadExtra: 1, BeatCycles: 1})
	r.fifo = &fakeFIFO{k: r.k, drain: plbClk.Cycles(4), waits: fc.waits}
	if err := opb.Map(rigICAP, 0x100, r.fifo); err != nil {
		t.Fatal(err)
	}
	if err := r.plb.Map(rigWindow, 0x1000_0000, bus.NewBridge(r.plb, opb, rigWindow, 1, 2)); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams(sim.NewClock("cpu", fc.cpuHz))
	p.CacheSize = 0
	r.c = New(r.k, p, r.plb)
	if fc.guarded {
		r.c.MapGuarded(rigWindow, 0x1000_0000)
	}
	return r
}

// TestStoreStreamSkipsInertRuns: without this test, a skip that never
// fires would pass every oracle. A 10,000-word inert run pushed in one
// StoreStream whose stop is polled every 256 words must be stored at most
// 32 words one at a time, while the first words fill the bridge's post
// queue and the write buffer, and every other word in bulk: after each
// poll the skip continues with no store of its own. A read through the
// bridge, two more stores and another read must then end at the same
// time, with the same counters, as after one SW per word. A stop that
// trips at its third poll leaves the rig as 768 SWs do.
//
// The posted rig runs at the 64-bit board's clocks. On the guarded rig the
// OPB runs at the CPU's 200 MHz and the FIFO waits 18 cycles, so a word's
// OPB transfer (105 ns) outlasts its PLB transfer and paces the stream:
// between two stores, the post queue holds writes still in flight, which
// the skip must move too.
func TestStoreStreamSkipsInertRuns(t *testing.T) {
	const words, every = 10_000, 256
	for _, fc := range []fakeConfig{
		{guarded: true, cpuHz: 200_000_000, plbHz: 50_000_000, opbHz: 200_000_000, waits: 18},
		{guarded: false, cpuHz: 300_000_000, plbHz: 100_000_000, opbHz: 100_000_000, waits: 1},
	} {
		for _, abortAt := range []int{0, 3} {
			n := words
			if abortAt > 0 {
				n = abortAt * every
			}
			ref, got := newFakeRig(t, fc), newFakeRig(t, fc)
			ws := make([]uint32, words)
			for _, w := range ws[:n] {
				ref.c.SW(rigICAP, w)
			}
			polls := 0
			stop := func() bool {
				polls++
				return polls == abortAt
			}
			if stored := got.c.StoreStream(rigICAP, ws, stop, every); stored != n {
				t.Fatalf("%+v: StoreStream stored %d words, want %d", fc, stored, n)
			}
			if want := (n - 1) / every; abortAt == 0 && polls != want {
				t.Fatalf("%+v: stop polled %d times, want %d", fc, polls, want)
			}
			if got.fifo.perWord > 32 {
				t.Fatalf("%+v: %d words stored one at a time, want at most 32", fc, got.fifo.perWord)
			}
			if m := got.fifo.perWord + got.fifo.bulk; m != n {
				t.Fatalf("%+v: %d words stored one at a time and %d in bulk, want %d in all", fc, got.fifo.perWord, got.fifo.bulk, n)
			}
			for _, r := range []*fakeRig{ref, got} {
				r.c.LW(rigICAP)
				r.c.SW(rigICAP, 0)
				r.c.SW(rigICAP, 0)
				r.c.LW(rigICAP)
				r.c.Sync()
			}
			_, refWrites, _ := ref.plb.Stats()
			_, gotWrites, _ := got.plb.Stats()
			if ref.k.Now() != got.k.Now() || ref.c.Stats() != got.c.Stats() || refWrites != gotWrites || ref.fifo.words != got.fifo.words {
				t.Fatalf("%+v: skipped stream ends at %v with %+v, %d bus writes, %d FIFO words;"+
					" per-word SW at %v with %+v, %d, %d", fc,
					got.k.Now(), got.c.Stats(), gotWrites, got.fifo.words, ref.k.Now(), ref.c.Stats(), refWrites, ref.fifo.words)
			}
		}
	}
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
