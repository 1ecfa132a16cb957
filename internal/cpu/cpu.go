// Package cpu models the embedded PowerPC 405 core at transaction level:
// software is written as Go code against a costed primitive API (ALU ops,
// branches, loads/stores), and every primitive advances simulated time
// according to the core's parameters, the data cache model, and the bus.
//
// Two properties of the real core that the paper leans on are enforced:
// load/store instructions move at most 32 bits ("the CPU does not support
// 64-bit wide data transfers at the instruction level", §4.1), and only
// cache-line refills/write-backs use the full 64-bit PLB width.
package cpu

import (
	"fmt"
	"math/bits"

	"repro/internal/bus"
	"repro/internal/sim"
)

// Params are the core's cost parameters, in CPU cycles.
type Params struct {
	Clk *sim.Clock

	OpCycles     int // simple integer ALU op
	MulCycles    int // multiply
	BranchCycles int // branch, not taken
	TakenExtra   int // extra cycles for a taken branch
	CallCycles   int // function call prologue
	RetCycles    int // function return
	LoadCycles   int // load instruction base cost (before memory)
	StoreCycles  int // store instruction base cost

	WBufDepth int // posted-write buffer depth (0 disables posting)

	IRQEntryCycles int // interrupt entry (context save, vectoring)
	IRQExitCycles  int // interrupt exit

	// Data cache geometry; CacheSize 0 disables the D-cache.
	CacheSize   int
	CacheWays   int
	CacheLine   int
	FlushCycles int // per-line dispatch cost of dcbf/dccci style ops
}

// DefaultParams returns PowerPC-405-like cost parameters at the given clock.
func DefaultParams(clk *sim.Clock) Params {
	return Params{
		Clk:            clk,
		OpCycles:       1,
		MulCycles:      4,
		BranchCycles:   1,
		TakenExtra:     2,
		CallCycles:     4,
		RetCycles:      4,
		LoadCycles:     1,
		StoreCycles:    1,
		WBufDepth:      4,
		IRQEntryCycles: 40,
		IRQExitCycles:  40,
		CacheSize:      16 << 10,
		CacheWays:      2,
		CacheLine:      32,
		FlushCycles:    3,
	}
}

// RegionAttr marks an address range cacheable (the PPC405 controls
// cacheability per storage region; peripheral ranges stay guarded).
type RegionAttr struct {
	Base, Size uint32
	Cacheable  bool
}

// Stats are the core's execution statistics.
type Stats struct {
	Ops, Branches uint64
	Loads, Stores uint64
	CacheHits     uint64
	CacheMisses   uint64
	Evictions     uint64
	PostedStalls  uint64
	IRQs          uint64
}

// CPU is one embedded processor core.
type CPU struct {
	k     *sim.Kernel
	p     Params
	bus   *bus.Bus
	dc    *dcache
	attr  []RegionAttr
	guard []RegionAttr
	// wbuf holds the completion times of the last WBufDepth posted
	// stores, oldest first; those at or before now have retired. They only
	// grow, since the bus serves in order.
	wbuf []sim.Time
	// chain is StoreStream's and Feed's timing record, holding the cells
	// of the path held names; feedBuf carries the words of Feed's skipped
	// groups.
	chain   sim.Chain
	held    chainPath
	feedBuf [256]uint32

	stats Stats
}

// chainPath names the cells a CPU's chain holds: those of StoreStream's
// path to dst (src zero), or of Feed's paths to dst and from src (its
// offset zeroed). The bus map is fixed once a board is built, so one path
// registers the same cells on every call, and a call along the path the
// chain holds keeps them. The zero chainPath (ok false) holds nothing.
type chainPath struct {
	ok  bool
	dst uint32
	src bus.Target
}

// hold makes the chain hold path p's cells, and reports whether they must
// be registered: the chain is reset, and holds the core's own cells, when
// it held another path's.
func (c *CPU) hold(p chainPath) bool {
	p.ok = true
	if c.held == p {
		return false
	}
	c.held = p
	c.chain.Reset(c.k)
	c.record(&c.chain)
	return true
}

// New returns a core attached to its data-side bus.
func New(k *sim.Kernel, p Params, b *bus.Bus) *CPU {
	c := &CPU{k: k, p: p, bus: b, wbuf: make([]sim.Time, max(p.WBufDepth, 0))}
	if p.CacheSize > 0 {
		c.dc = newDCache(p.CacheSize, p.CacheWays, p.CacheLine)
	}
	return c
}

// Clock returns the CPU clock.
func (c *CPU) Clock() *sim.Clock { return c.p.Clk }

// Stats returns a copy of the execution statistics.
func (c *CPU) Stats() Stats { return c.stats }

// CacheEnabled reports whether the D-cache model is active.
func (c *CPU) CacheEnabled() bool { return c.dc != nil }

// MapCacheable marks [base, base+size) as cacheable.
func (c *CPU) MapCacheable(base, size uint32) {
	c.attr = append(c.attr, RegionAttr{Base: base, Size: size, Cacheable: true})
}

// MapGuarded marks [base, base+size) as guarded storage (device windows):
// stores to guarded addresses bypass the write buffer and block until the
// bus transaction completes, as on the PowerPC 405.
func (c *CPU) MapGuarded(base, size uint32) {
	c.guard = append(c.guard, RegionAttr{Base: base, Size: size})
}

func (c *CPU) guarded(addr uint32) bool {
	for _, a := range c.guard {
		if addr >= a.Base && addr-a.Base < a.Size {
			return true
		}
	}
	return false
}

// cacheable reports whether any byte of [addr, addr+size) is cacheable.
func (c *CPU) cacheable(addr uint32, size int) bool {
	if c.dc == nil {
		return false
	}
	lo, hi := uint64(addr), uint64(addr)+uint64(size)
	for _, a := range c.attr {
		if a.Cacheable && lo < uint64(a.Base)+uint64(a.Size) && uint64(a.Base) < hi {
			return true
		}
	}
	return false
}

// tick advances time by n CPU cycles.
func (c *CPU) tick(n int) {
	if n > 0 {
		c.k.Advance(c.p.Clk.Cycles(uint64(n)))
	}
}

// Op executes n simple ALU operations.
func (c *CPU) Op(n int) {
	c.stats.Ops += uint64(n)
	c.tick(n * c.p.OpCycles)
}

// Mul executes one multiply.
func (c *CPU) Mul() {
	c.stats.Ops++
	c.tick(c.p.MulCycles)
}

// Branch executes a conditional branch.
func (c *CPU) Branch(taken bool) {
	c.stats.Branches++
	n := c.p.BranchCycles
	if taken {
		n += c.p.TakenExtra
	}
	c.tick(n)
}

// Call accounts a function-call prologue.
func (c *CPU) Call() { c.tick(c.p.CallCycles) }

// Ret accounts a function return.
func (c *CPU) Ret() { c.tick(c.p.RetCycles) }

// load is the common load path. size must be 1, 2 or 4.
func (c *CPU) load(addr uint32, size int) uint32 {
	if size > 4 {
		panic("cpu: load wider than 32 bits — the PPC405 ISA has no 64-bit loads")
	}
	c.stats.Loads++
	c.tick(c.p.LoadCycles)
	if c.cacheable(addr, size) {
		c.dcAccess(addr, false)
		v, err := c.bus.Peek(addr, size) // data is functionally in memory
		if err != nil {
			panic(fmt.Sprintf("cpu: load %#x: %v", addr, err))
		}
		return uint32(v)
	}
	v, err := c.bus.Read(addr, size)
	if err != nil {
		panic(fmt.Sprintf("cpu: load %#x: %v", addr, err))
	}
	return uint32(v)
}

// store is the common store path. size must be 1, 2 or 4.
func (c *CPU) store(addr uint32, val uint32, size int) {
	if size > 4 {
		panic("cpu: store wider than 32 bits — the PPC405 ISA has no 64-bit stores")
	}
	c.stats.Stores++
	c.tick(c.p.StoreCycles)
	if c.cacheable(addr, size) {
		c.dcAccess(addr, true)
		if err := c.bus.Poke(addr, uint64(val), size); err != nil {
			panic(fmt.Sprintf("cpu: store %#x: %v", addr, err))
		}
		return
	}
	if c.posts(addr) {
		done, err := c.bus.WritePosted(addr, uint64(val), size)
		if err != nil {
			panic(fmt.Sprintf("cpu: store %#x: %v", addr, err))
		}
		c.retire(done)
		return
	}
	if err := c.bus.Write(addr, uint64(val), size); err != nil {
		panic(fmt.Sprintf("cpu: store %#x: %v", addr, err))
	}
}

// StoreStream stores the words to the one address addr, with the effect
// and timing of one SW per word: the tick, the bus transaction and, for a
// posted store, the write-buffer stall. The bus resolves addr once for the
// whole run — the loop software runs to push a configuration stream into
// the HWICAP write FIFO. A non-nil stop is polled before every every-th
// word after the first (words[every], words[2*every], ...), and when it
// reports true StoreStream stores nothing more. It returns how many words
// it stored.
//
// When the target is a bus.BulkSink (the write FIFO with its decoder
// disarmed), a run of inert words (FDRI frame data) is not stored one by
// one. StoreStream stores one of them with the whole chain's timing state
// recorded around it: the write buffer on a posted path, both buses, the
// bridge's post queue, the HWICAP and every counter they move. Each step
// is a max-plus function of that state taken relative to now, so once the
// store leaves it as it found it, the rest of the run repeats the step:
// the chain advances them in one sim.Chain.Skip, which ends before the
// next pending event, and the words go to the loader in bulk. A Skip that
// applied every step it was asked for, up to a poll, continues past the
// poll with another Skip and no store in between. Every other word, and
// every word to any other target, is stored one at a time.
func (c *CPU) StoreStream(addr uint32, words []uint32, stop func() bool, every int) int {
	st, err := c.bus.OpenStream(addr, 4)
	plain := err != nil || c.cacheable(addr, 4)
	posted := !plain && c.posts(addr)
	bulk := !plain && st.Bulk()
	ch := &c.chain
	if bulk && c.hold(chainPath{dst: addr}) {
		st.Record(ch)
	}
	poll := len(words) // the index of the next word stop is polled before
	if stop != nil && every > 0 {
		poll = every
	}
	// skipping is set while the last Skip applied every step it was asked
	// for: the words after it continue its run.
	skipping := false
	for i := 0; i < len(words); {
		if i == poll {
			if stop() {
				return i
			}
			poll += every
		}
		// The inert words from this one on, up to the next poll.
		run := 0
		if bulk {
			run = min(st.Inert(), poll-i, len(words)-i)
		}
		switch {
		case skipping && run > 0:
			n := ch.Skip(run)
			st.WriteWords(words[i : i+n])
			i += n
			skipping = n == run
		case run > 1:
			ch.Mark()
			c.storeWord(&st, words[i], posted)
			i++
			n := ch.Skip(run - 1)
			st.WriteWords(words[i : i+n])
			i += n
			skipping = n == run-1
		case plain:
			c.SW(addr, words[i])
			i++
		default:
			c.storeWord(&st, words[i], posted)
			i++
			skipping = false
		}
	}
	return len(words)
}

// storeWord is one uncached SW of w through the open stream st.
func (c *CPU) storeWord(st *bus.Stream, w uint32, posted bool) {
	c.stats.Stores++
	c.tick(c.p.StoreCycles)
	if done := st.Post(uint64(w)); posted {
		c.retire(done)
	} else {
		c.k.AdvanceTo(done)
	}
}

// Feed runs the driver loop that moves words from memory into a device
// register: n groups of size words, read from consecutive addresses from
// src on, each word one LW (byte-reversed, as lwbrx, when swap) and one SW
// to the one address dst, and after each group ops ALU ops and a taken
// branch. It has the effect and timing of that loop.
//
// When neither address is cacheable, the destination resolves to a
// bus.PlainSlave and the whole source range to another slave, a
// bus.WordReader, every group is one max-plus step of the path's timing
// state: the core's counters and write buffer, the buses' busy-until marks
// and counts, the bridge's post queue and counts. Feed runs each group
// with that state recorded in a sim.Chain around it, as StoreStream does
// for inert words. Once a group leaves the state, relative to now, as it
// found it, Chain.Skip advances the remaining groups at once, strictly
// before the next pending event, and their words move functionally from
// the source slave to the destination slave, which count them as their
// own Read and Write do. Every other feed runs group by group.
func (c *CPU) Feed(dst, src uint32, n, size, ops int, swap bool) {
	d, s, r := c.feedTargets(dst, src, n, size)
	if r == nil {
		for g := range n {
			c.feedGroup(dst, src+uint32(4*size*g), size, ops, swap)
		}
		return
	}
	ch := &c.chain
	path := chainPath{dst: dst, src: s}
	path.src.Off = 0
	if c.hold(path) {
		d.Record(ch)
		s.Record(ch)
	}
	for g := 0; g < n; g++ {
		ch.Mark()
		c.feedGroup(dst, src+uint32(4*size*g), size, ops, swap)
		k := ch.Skip(n - g - 1)
		for off, left := s.Off+uint32(4*size*(g+1)), k*size; left > 0; {
			ws := c.feedBuf[:min(left, len(c.feedBuf))]
			r.ReadWords(off, ws)
			for _, w := range ws {
				if swap {
					w = bits.ReverseBytes32(w)
				}
				d.Slave.Write(d.Off, uint64(w), 4)
			}
			off += uint32(4 * len(ws))
			left -= len(ws)
		}
		g += k
	}
}

// feedTargets resolves a feed's destination register and the first and
// last words of its source with no timing effect. It returns the source
// slave as a reader when the feed can skip: more than one group, nothing
// cacheable, and the targets two slaves that declare plain timing, the
// source range within one mapping.
func (c *CPU) feedTargets(dst, src uint32, n, size int) (d, s bus.Target, r bus.WordReader) {
	words := n * size
	if n < 2 || size < 1 || c.cacheable(dst, 4) || c.cacheable(src, 4*words) {
		return d, s, nil
	}
	d, err := c.bus.Resolve(dst)
	if err != nil {
		return d, s, nil
	}
	if s, err = c.bus.Resolve(src); err != nil {
		return d, s, nil
	}
	last, err := c.bus.Resolve(src + uint32(4*(words-1)))
	last.Off -= uint32(4 * (words - 1))
	r, _ = s.Slave.(bus.WordReader)
	if _, plain := d.Slave.(bus.PlainSlave); err != nil || last != s || !plain || d.Slave == s.Slave {
		r = nil
	}
	return d, s, r
}

// feedGroup is one group of a Feed, one instruction at a time.
func (c *CPU) feedGroup(dst, src uint32, size, ops int, swap bool) {
	for i := range size {
		w := c.LW(src + uint32(4*i))
		if swap {
			w = bits.ReverseBytes32(w)
		}
		c.SW(dst, w)
	}
	c.Op(ops)
	c.Branch(true)
}

// record registers in ch the core's own timing state: every Stats counter
// and the write buffer.
func (c *CPU) record(ch *sim.Chain) {
	s := &c.stats
	ch.Count(&s.Ops, &s.Branches, &s.Loads, &s.Stores, &s.CacheHits, &s.CacheMisses, &s.Evictions, &s.PostedStalls, &s.IRQs)
	for i := range c.wbuf {
		ch.Time(&c.wbuf[i])
	}
}

// posts reports whether an uncached store to addr goes through the write
// buffer: the functional write and bus occupancy happen immediately, and
// the CPU only stalls when the buffer is full.
func (c *CPU) posts(addr uint32) bool { return c.p.WBufDepth > 0 && !c.guarded(addr) }

// retire enters a posted store completing at done into the write buffer,
// in place of its oldest entry. When that entry is still in flight every
// entry is, and the buffer is full: the core stalls until it retires.
func (c *CPU) retire(done sim.Time) {
	if oldest := c.wbuf[0]; oldest > c.k.Now() {
		c.stats.PostedStalls++
		c.k.AdvanceTo(oldest)
	}
	copy(c.wbuf, c.wbuf[1:])
	c.wbuf[len(c.wbuf)-1] = done
}

// dcAccess runs the cache timing model for a cacheable access.
func (c *CPU) dcAccess(addr uint32, write bool) {
	hit, victim, dirty := c.dc.access(addr, write)
	if hit {
		c.stats.CacheHits++
		return
	}
	c.stats.CacheMisses++
	beats := c.p.CacheLine / c.bus.Width()
	if dirty {
		c.stats.Evictions++
		done, err := c.bus.BurstPenalty(victim, beats, true)
		if err == nil {
			c.k.AdvanceTo(done)
		}
	}
	lineAddr := addr &^ uint32(c.p.CacheLine-1)
	done, err := c.bus.BurstPenalty(lineAddr, beats, false)
	if err != nil {
		panic(fmt.Sprintf("cpu: line fill %#x: %v", lineAddr, err))
	}
	c.k.AdvanceTo(done)
}

// Loads and stores of the three ISA sizes.

// LW loads a 32-bit word.
func (c *CPU) LW(addr uint32) uint32 { return c.load(addr, 4) }

// LH loads a 16-bit halfword (zero-extended).
func (c *CPU) LH(addr uint32) uint16 { return uint16(c.load(addr, 2)) }

// LB loads a byte (zero-extended).
func (c *CPU) LB(addr uint32) uint8 { return uint8(c.load(addr, 1)) }

// SW stores a 32-bit word.
func (c *CPU) SW(addr uint32, v uint32) { c.store(addr, v, 4) }

// SH stores a 16-bit halfword.
func (c *CPU) SH(addr uint32, v uint16) { c.store(addr, uint32(v), 2) }

// SB stores a byte.
func (c *CPU) SB(addr uint32, v uint8) { c.store(addr, uint32(v), 1) }

// FlushRange writes back and invalidates every cache line intersecting
// [addr, addr+size) — the dcbf loop a driver runs before DMA reads memory.
func (c *CPU) FlushRange(addr uint32, size int) {
	if c.dc == nil || size <= 0 {
		return
	}
	line := uint32(c.p.CacheLine)
	beats := c.p.CacheLine / c.bus.Width()
	for a := addr &^ (line - 1); a < addr+uint32(size); a += line {
		c.tick(c.p.FlushCycles)
		if c.dc.flushLine(a) {
			c.stats.Evictions++
			if done, err := c.bus.BurstPenalty(a, beats, true); err == nil {
				c.k.AdvanceTo(done)
			}
		}
	}
}

// InvalidateRange discards cache lines intersecting the range without
// writing them back — used on DMA target buffers before reading them.
func (c *CPU) InvalidateRange(addr uint32, size int) {
	if c.dc == nil || size <= 0 {
		return
	}
	line := uint32(c.p.CacheLine)
	for a := addr &^ (line - 1); a < addr+uint32(size); a += line {
		c.tick(c.p.FlushCycles)
		c.dc.invalidateLine(a)
	}
}

// Sync drains the write buffer and waits for the bus to go idle (msync).
func (c *CPU) Sync() {
	if n := len(c.wbuf); n > 0 && c.wbuf[n-1] > c.k.Now() {
		c.k.AdvanceTo(c.wbuf[n-1])
	}
	c.tick(1)
}

// WaitForIRQ idles the core until pending reports true (events continue to
// fire), then pays the interrupt entry/exit overhead — the "CPU is free
// during DMA transfers" path of §4.1.
func (c *CPU) WaitForIRQ(pending func() bool) error {
	if !pending() {
		if err := c.k.RunUntil(pending); err != nil {
			return fmt.Errorf("cpu: WaitForIRQ: %w", err)
		}
	}
	c.stats.IRQs++
	c.tick(c.p.IRQEntryCycles + c.p.IRQExitCycles)
	return nil
}

// Spin models a polling loop: repeatedly evaluates cond every pollCycles
// until it reports true.
func (c *CPU) Spin(pollCycles int, cond func() bool) error {
	for i := 0; ; i++ {
		if cond() {
			return nil
		}
		if i > 1<<22 {
			return fmt.Errorf("cpu: Spin exceeded iteration budget")
		}
		c.tick(pollCycles)
	}
}
