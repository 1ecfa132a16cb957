package cpu

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bus"
	"repro/internal/dock"
	"repro/internal/intc"
	"repro/internal/memctl"
	"repro/internal/sim"
)

// plainFeed is the driver loop Feed replaces, one instruction at a time:
// the reference every Feed must match.
func plainFeed(c *CPU, dst, src uint32, n, size, ops int, swap bool) {
	for g := 0; g < n; g++ {
		for i := 0; i < size; i++ {
			w := c.LW(src + uint32(4*(size*g+i)))
			if swap {
				w = w<<24 | w>>24 | w<<8&0xFF0000 | w>>8&0xFF00
			}
			c.SW(dst, w)
		}
		c.Op(ops)
		c.Branch(true)
	}
}

// countingMem is an SRAM that counts how its words are read: one Read at
// a time or in bulk through ReadWords.
type countingMem struct {
	*memctl.Memory
	perWord, bulk int
}

func (m *countingMem) Read(addr uint32, size int) (uint64, int) {
	m.perWord++
	return m.Memory.Read(addr, size)
}

func (m *countingMem) ReadWords(addr uint32, ws []uint32) {
	m.bulk += len(ws)
	m.Memory.ReadWords(addr, ws)
}

// wordCore is a circuit that keeps every word written to it.
type wordCore struct{ words []uint32 }

func (w *wordCore) Name() string                { return "words" }
func (w *wordCore) Reset()                      { w.words = w.words[:0] }
func (w *wordCore) Write(v uint64, size int)    { w.words = append(w.words, uint32(v)) }
func (w *wordCore) Read() uint64                { return uint64(len(w.words)) }
func (w *wordCore) PopOut() (v uint64, ok bool) { return 0, false }
func (w *wordCore) CyclesPerWord() int          { return 1 }

// The feed rig's address map. The PLB forwards [feedWindow,
// feedWindow+0x1000_0000) to the OPB, which holds the SRAM, the OPB Dock
// and a write FIFO that takes inert words in bulk; the PLB Dock sits on
// the PLB itself.
const (
	feedWindow  = 0x4000_0000
	feedSRAM    = 0x4000_0000
	feedMemSize = 1 << 18
	feedDock    = 0x4800_0000
	feedFIFO    = 0x4900_0000
	feedSpare   = feedSRAM + feedMemSize - 0x100 // backlog and event stores
	feedPLBDock = 0x5000_0000
)

// feedConfig sets a feedRig's clocks, the dock window's storage attribute
// and whether the SRAM is cacheable.
type feedConfig struct {
	cpuHz, busHz uint64
	guarded      bool
	cached       bool
}

// The two boards' clocks.
var (
	feed32 = feedConfig{cpuHz: 200_000_000, busHz: 50_000_000, guarded: true}
	feed64 = feedConfig{cpuHz: 300_000_000, busHz: 100_000_000, guarded: true}
)

// feedRig wires a CPU to the 32-bit board's data path: PLB, bridge and
// OPB, with an SRAM, an OPB Dock and a write FIFO behind the bridge and a
// PLB Dock on the PLB, each dock holding a wordCore.
type feedRig struct {
	k        *sim.Kernel
	c        *CPU
	plb, opb *bus.Bus
	br       *bus.Bridge
	mem      *countingMem
	dock     *dock.OPBDock
	plbDock  *dock.PLBDock
	core     *wordCore
	plbCore  *wordCore
	fifo     *fakeFIFO
	due      sim.Time    // when the event scheduled by at falls due
	seen     []feedState // the states that event found
}

func newFeedRig(tb testing.TB, fc feedConfig) *feedRig {
	tb.Helper()
	k := sim.NewKernel()
	clk := sim.NewClock("bus", fc.busHz)
	r := &feedRig{
		k:       k,
		plb:     bus.New("plb", k, clk, 8, bus.Params{ArbCycles: 2, ReadExtra: 2, BeatCycles: 1}),
		opb:     bus.New("opb", k, clk, 4, bus.Params{ArbCycles: 2, ReadExtra: 1, BeatCycles: 1}),
		mem:     &countingMem{Memory: memctl.New("sram", feedMemSize, 4, 3, -1)},
		dock:    dock.NewOPBDock(4, 1),
		core:    &wordCore{},
		plbCore: &wordCore{},
	}
	r.fifo = &fakeFIFO{k: k, drain: clk.Cycles(4), waits: 1}
	r.br = bus.NewBridge(r.plb, r.opb, feedWindow, 1, 2)
	r.plbDock = dock.NewPLBDock(k, r.plb, intc.New(), 0, 2, 1)
	r.dock.SetCore(r.core)
	r.plbDock.SetCore(r.plbCore)
	for _, m := range []struct {
		b    *bus.Bus
		base uint32
		size uint32
		s    bus.Slave
	}{
		{r.opb, feedSRAM, feedMemSize, r.mem},
		{r.opb, feedDock, 0x100, r.dock},
		{r.opb, feedFIFO, 0x100, r.fifo},
		{r.plb, feedWindow, 0x1000_0000, r.br},
		{r.plb, feedPLBDock, 0x1_0000, r.plbDock},
	} {
		if err := m.b.Map(m.base, m.size, m.s); err != nil {
			tb.Fatal(err)
		}
	}
	p := DefaultParams(sim.NewClock("cpu", fc.cpuHz))
	if !fc.cached {
		p.CacheSize = 0
	}
	r.c = New(k, p, r.plb)
	if fc.cached {
		r.c.MapCacheable(feedSRAM, feedMemSize)
	}
	if fc.guarded {
		r.c.MapGuarded(feedDock, 0x100)
		r.c.MapGuarded(feedFIFO, 0x100)
		r.c.MapGuarded(feedPLBDock, 0x1_0000)
	}
	return r
}

// feedState is everything a feed can move on the rig, apart from memory
// contents and the words the docks' circuits took.
type feedState struct {
	now, next sim.Time
	cpu       Stats
	plb, opb  [3]uint64
	bridge    [2]uint64
	mem       [2]uint64
	dock      [2]uint64
	plbDock   [4]uint64
	took      [2]int
	fifo      uint64
	fifoAhead sim.Time // how far the FIFO's busy-until mark lies ahead
}

func (r *feedRig) state() feedState {
	now := r.k.Now()
	s := feedState{
		now: now, next: r.k.NextAt(), cpu: r.c.Stats(),
		took: [2]int{len(r.core.words), len(r.plbCore.words)},
		fifo: r.fifo.words, fifoAhead: max(r.fifo.busyUntil, now) - now,
	}
	s.plb[0], s.plb[1], s.plb[2] = r.plb.Stats()
	s.opb[0], s.opb[1], s.opb[2] = r.opb.Stats()
	s.bridge[0], s.bridge[1] = r.br.Stats()
	s.mem[0], s.mem[1] = r.mem.Stats()
	s.dock[0], s.dock[1] = r.dock.Stats()
	s.plbDock[0], s.plbDock[1], s.plbDock[2], s.plbDock[3] = r.plbDock.Stats()
	return s
}

// at schedules an event d from now that records the rig's state and then,
// as a second bus master, posts a write through the bridge into the
// SRAM: it moves the PLB, the bridge and the OPB under a running feed.
func (r *feedRig) at(d sim.Time) {
	r.due = r.k.Now() + d
	r.k.Schedule(d, func() {
		r.seen = append(r.seen, r.state())
		if _, err := r.plb.WritePosted(feedSpare+0x80, uint64(len(r.seen)), 4); err != nil {
			panic(err)
		}
	})
}

// feedCase is one feed: where from and to, its loop shape, the posted
// stores in flight before it and when an event falls due.
type feedCase struct {
	dst, src     uint32
	n, size, ops int
	swap         bool
	backlog      int
	eventAt      sim.Time
	data         []byte // loaded at src before the feed
}

func (fc feedCase) String() string {
	return fmt.Sprintf("%#x<-%#x %dx%d ops %d swap %v backlog %d event %v",
		fc.dst, fc.src, fc.n, fc.size, fc.ops, fc.swap, fc.backlog, fc.eventAt)
}

// run loads the case's data, issues its backlog of posted stores,
// schedules its event and runs the feed, by Feed or by the plain loop.
func (r *feedRig) run(tb testing.TB, fc feedCase, feed bool) {
	tb.Helper()
	for i := 0; i+4 <= len(fc.data); i += 4 {
		if err := r.c.bus.Poke(fc.src+uint32(i), uint64(binary.BigEndian.Uint32(fc.data[i:])), 4); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < fc.backlog; i++ {
		r.c.SW(feedSpare+uint32(4*(i%16)), uint32(i))
	}
	r.at(fc.eventAt)
	if feed {
		r.c.Feed(fc.dst, fc.src, fc.n, fc.size, fc.ops, fc.swap)
	} else {
		plainFeed(r.c, fc.dst, fc.src, fc.n, fc.size, fc.ops, fc.swap)
	}
}

// tail loads a source word, stores it to the destination and loads the
// next source word. A busy-until mark or post-queue entry a feed left
// wrong shows in the time these take.
func (r *feedRig) tail(fc feedCase) {
	r.c.SW(fc.dst, r.c.LW(fc.src))
	r.c.LW(fc.src + 4)
	r.c.Sync()
}

// checkFeed runs fc on two identical rigs, by Feed on one and by the plain
// loop on the other. It fails unless both end in the same state, the event
// found both alike, at its own time, a load, a store and another load then
// take the same time, and memory and both circuits hold the same words.
// It returns how many source words Feed read from the SRAM one at a time
// and how many in bulk.
func checkFeed(t *testing.T, cfg feedConfig, fc feedCase) (perWord, bulk int) {
	t.Helper()
	ref, got := newFeedRig(t, cfg), newFeedRig(t, cfg)
	ref.run(t, fc, false)
	got.run(t, fc, true)
	if a, b := ref.state(), got.state(); a != b {
		t.Fatalf("%v: Feed state differs from the plain loop:\n plain %+v\n Feed  %+v", fc, a, b)
	}
	if !slices.Equal(ref.seen, got.seen) {
		t.Fatalf("%v: the event found different states:\n plain %+v\n Feed  %+v", fc, ref.seen, got.seen)
	}
	for _, s := range got.seen {
		if s.now != got.due {
			t.Fatalf("%v: the event fired at %v, want %v", fc, s.now, got.due)
		}
	}
	ref.tail(fc)
	got.tail(fc)
	if a, b := ref.state(), got.state(); a != b {
		t.Fatalf("%v: after a load, a store and a load:\n plain %+v\n Feed  %+v", fc, a, b)
	}
	if !slices.Equal(ref.core.words, got.core.words) || !slices.Equal(ref.plbCore.words, got.plbCore.words) {
		t.Fatalf("%v: the circuits took different words", fc)
	}
	a, _ := ref.mem.ReadBytes(0, feedMemSize)
	b, _ := got.mem.ReadBytes(0, feedMemSize)
	if !slices.Equal(a, b) {
		t.Fatalf("%v: SRAM contents differ", fc)
	}
	// Both rigs read the SRAM alike, but for the feed's source words,
	// which the plain loop reads one at a time.
	perWord = got.mem.perWord - ref.mem.perWord
	if fc.src >= feedSRAM && fc.src < feedSRAM+feedMemSize {
		perWord += fc.n * fc.size
	}
	return perWord, got.mem.bulk
}

// seeded returns n pseudo-random bytes.
func seeded(seed uint32, n int) []byte {
	b := make([]byte, n)
	x := seed*2654435761 + 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[i] = byte(x)
	}
	return b
}

// TestFeedSkipsRepeatedGroups: without this test, a skip that never fires
// would pass every oracle. A 600-byte jenkins-shaped feed (50 groups of
// three byte-reversed words) and a 4,096-word transfer feed from the SRAM
// to the OPB Dock, at both boards' clocks, on a guarded and a posted dock
// window, after a backlog of posted stores and with an event due
// mid-feed, must leave the rig as the plain loop does and read the source
// words of all but six groups in bulk.
func TestFeedSkipsRepeatedGroups(t *testing.T) {
	posted := feed32
	posted.guarded = false
	for _, cfg := range []feedConfig{feed32, feed64, posted} {
		for _, fc := range []feedCase{
			{dst: feedDock, src: feedSRAM + 0x100, n: 50, size: 3, ops: 6, swap: true, data: seeded(1, 600)},
			{dst: feedDock, src: feedSRAM + 0x100, n: 50, size: 3, ops: 6, swap: true, data: seeded(2, 600), backlog: 6, eventAt: 20*sim.Microsecond + 3},
			{dst: feedDock, src: feedSRAM + 0xFF00, n: 4096, size: 1, ops: 4, data: seeded(3, 4*4096)},
			{dst: feedDock, src: feedSRAM + 0xFF00, n: 4096, size: 1, ops: 4, data: seeded(4, 4*4096), backlog: 3, eventAt: 500 * sim.Microsecond},
		} {
			if fc.eventAt == 0 {
				fc.eventAt = sim.Second // past the feed's end
			}
			perWord, bulk := checkFeed(t, cfg, fc)
			if limit := 6 * fc.size; perWord > limit || perWord+bulk != fc.n*fc.size {
				t.Errorf("%+v %v: %d source words read one at a time and %d in bulk, want at most %d one at a time",
					cfg, fc, perWord, bulk, limit)
			}
		}
	}
}

// TestFeedSkipsOnlyPlainUncachedPaths: a feed whose source is cacheable,
// whose destination is the PLB Dock (FIFO, DMA engine and interrupt) or
// whose destination is its own source memory runs group by group, and
// still ends as the plain loop does.
func TestFeedSkipsOnlyPlainUncachedPaths(t *testing.T) {
	cached := feed64
	cached.cached = true
	for _, c := range []struct {
		cfg feedConfig
		fc  feedCase
	}{
		{cached, feedCase{dst: feedDock, src: feedSRAM + 0x100, n: 50, size: 3, ops: 6, swap: true}},
		{feed64, feedCase{dst: feedPLBDock + dock.RegData, src: feedSRAM + 0x100, n: 50, size: 3, ops: 6, swap: true}},
		{feed32, feedCase{dst: feedSRAM + 0x200, src: feedSRAM + 0x100, n: 100, size: 1, ops: 4}},
	} {
		c.fc.data, c.fc.eventAt = seeded(5, 4*c.fc.n*c.fc.size), sim.Second
		if _, bulk := checkFeed(t, c.cfg, c.fc); bulk != 0 {
			t.Errorf("%+v %v: %d source words read in bulk, want none", c.cfg, c.fc, bulk)
		}
	}
}

// TestFeedAndStoreStreamShareTheChain: one CPU runs a feed, a store
// stream into a FIFO that takes inert words in bulk, and a feed again. The
// chain holds one path's cells at a time, so each call must register its
// own: a stream skipped with the feed's cells would not move the FIFO's.
// The rig must end as with the plain loop and one SW per word.
func TestFeedAndStoreStreamShareTheChain(t *testing.T) {
	fc := feedCase{dst: feedDock, src: feedSRAM + 0x100, n: 50, size: 3, ops: 6, swap: true, data: seeded(7, 600), eventAt: sim.Second}
	ws := make([]uint32, 1000)
	ref, got := newFeedRig(t, feed32), newFeedRig(t, feed32)
	ref.run(t, fc, false)
	got.run(t, fc, true)
	for _, w := range ws {
		ref.c.SW(feedFIFO, w)
	}
	got.c.StoreStream(feedFIFO, ws, nil, 0)
	plainFeed(ref.c, fc.dst, fc.src, fc.n, fc.size, fc.ops, fc.swap)
	got.c.Feed(fc.dst, fc.src, fc.n, fc.size, fc.ops, fc.swap)
	if a, b := ref.state(), got.state(); a != b {
		t.Fatalf("feed, stream, feed: state differs from the plain loop and SWs:\n plain %+v\n Feed  %+v", a, b)
	}
	if got.fifo.bulk == 0 || got.mem.bulk == 0 {
		t.Fatalf("%d stream words and %d feed words moved in bulk, want both skipped", got.fifo.bulk, got.mem.bulk)
	}
}

// FuzzFeed feeds arbitrary words from the SRAM through the PLB, bridge and
// OPB into the OPB Dock, by Feed and by the plain loop, in arbitrary
// groups, op counts and byte order, from any source offset, after a backlog
// of posted stores, on a guarded or posted dock window, with an event due
// at an arbitrary picosecond: both must leave identical kernel time, next
// event, counters, memory and circuit words, and the event must find both
// in the same state.
func FuzzFeed(f *testing.F) {
	data := seeded(6, 600)
	f.Add(data, uint8(2), uint8(6), true, uint32(0x100), uint8(0), true, uint32(20_000_003))
	f.Add(data, uint8(0), uint8(4), false, uint32(0xFFF2), uint8(5), false, uint32(7_000_000))
	f.Add(data[:64], uint8(3), uint8(0), true, uint32(3), uint8(9), true, uint32(1_000))
	f.Fuzz(func(t *testing.T, data []byte, size, ops uint8, swap bool, srcOff uint32, backlog uint8, guarded bool, eventPs uint32) {
		fc := feedCase{
			dst: feedDock, size: 1 + int(size%4), ops: int(ops % 64), swap: swap,
			backlog: int(backlog % 8), eventAt: sim.Time(eventPs) * sim.Picosecond,
		}
		fc.n = min(len(data), 1<<16) / (4 * fc.size)
		fc.data = data[:4*fc.n*fc.size]
		// Below the spare words at the top of the SRAM.
		fc.src = feedSRAM + srcOff%(feedMemSize-0x100-uint32(len(fc.data)))
		cfg := feed32
		cfg.guarded = guarded
		checkFeed(t, cfg, fc)
	})
}
