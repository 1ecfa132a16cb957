// Package bus models the CoreConnect on-chip buses of the two systems: the
// 32-bit On-chip Peripheral Bus (OPB), the 64-bit Processor Local Bus (PLB)
// with burst support, and the PLB→OPB bridge. Transactions are
// transaction-level: each access computes its duration from protocol
// parameters and slave wait states, occupies the bus for that span, and
// optionally blocks the simulated CPU.
package bus

import (
	"fmt"

	"repro/internal/sim"
)

// Slave is a device attached to a bus. Addresses passed to slaves are
// bus-relative to the mapping base. Implementations perform the access
// functionally and return their wait states in bus cycles.
type Slave interface {
	Name() string
	// Read returns the value at addr of the given size in bytes (1, 2, 4,
	// or 8 on 64-bit capable slaves) and the slave wait cycles.
	Read(addr uint32, size int) (uint64, int)
	// Write stores val at addr and returns the slave wait cycles.
	Write(addr uint32, val uint64, size int) int
}

// StreamSlave is implemented by slaves that can resolve the target of a run
// of writes to one address once. WriteStream returns the run's Sink; a
// slave that forwards the run (the bridge) or feeds it to an engine (the
// HWICAP write FIFO) skips its per-word dispatch.
type StreamSlave interface {
	Slave
	WriteStream(addr uint32, size int) Sink
}

// Sink takes a run of writes to one slave address: Write has the effect of
// the slave's Write(addr, val, size) and returns its wait cycles.
type Sink interface {
	Write(val uint64) int
}

// SinkFunc adapts a function to a Sink.
type SinkFunc func(val uint64) int

// Write calls f(val).
func (f SinkFunc) Write(val uint64) int { return f(val) }

// BulkSink is a Sink that can take a run of inert words in one step. An
// inert word's timing does not depend on its value, and writing it fires
// no callback and schedules no event, so every Write of a run of them is
// the same max-plus step of the timing state the sink records; a
// sim.Chain advances that state, and WriteWords does the rest.
type BulkSink interface {
	Sink
	// Inert reports how many of the next words written are inert.
	Inert() int
	// Record registers in ch every time and counter a Write moves.
	Record(ch *sim.Chain)
	// WriteWords has the functional effect of one Write per word for at
	// most Inert() words, leaving their timing to the chain.
	WriteWords(ws []uint32)
}

// PlainSlave is a Slave whose single accesses have plain timing: their wait
// states depend on the address and size alone, never on the value or on
// the slave's state, and an access schedules no event. A driver loop of
// such accesses repeats one step of the bus timing, which cpu.Feed
// advances in closed form.
type PlainSlave interface {
	Slave
	PlainTiming()
}

// WordReader is a PlainSlave that reads a run of consecutive 32-bit words
// in one call, with the effect of one Read(addr+4i, 4) per word.
type WordReader interface {
	PlainSlave
	ReadWords(addr uint32, ws []uint32)
}

// BurstSlave is implemented by slaves that support multi-beat bursts (memory
// controllers, the PLB Dock). BurstWaits returns the wait cycles for an
// n-beat burst in addition to the per-beat cycles.
type BurstSlave interface {
	Slave
	BurstWaits(addr uint32, beats int, write bool) int
}

// Params are the protocol cycle costs of a bus.
type Params struct {
	// ArbCycles covers arbitration plus the address phase.
	ArbCycles int
	// ReadExtra is added to read transactions (data return path).
	ReadExtra int
	// WriteExtra is added to write transactions.
	WriteExtra int
	// BeatCycles is the cost of each data beat (normally 1).
	BeatCycles int
}

type mapping struct {
	base, size uint32
	slave      Slave
}

// Bus is one bus instance: a clock domain, protocol parameters, an address
// map, and an occupancy resource for contention between masters.
type Bus struct {
	name  string
	k     *sim.Kernel
	clk   *sim.Clock
	width int // bytes per beat: 4 (OPB) or 8 (PLB)
	p     Params
	maps  []mapping
	res   *sim.Resource

	reads, writes, bursts uint64
}

// New returns a bus. width is the data width in bytes (4 or 8).
func New(name string, k *sim.Kernel, clk *sim.Clock, width int, p Params) *Bus {
	if width != 4 && width != 8 {
		panic("bus: width must be 4 or 8 bytes")
	}
	if p.BeatCycles <= 0 {
		p.BeatCycles = 1
	}
	return &Bus{name: name, k: k, clk: clk, width: width, p: p, res: sim.NewResource(k)}
}

// Name returns the bus name.
func (b *Bus) Name() string { return b.name }

// Clock returns the bus clock domain.
func (b *Bus) Clock() *sim.Clock { return b.clk }

// Width returns the data width in bytes.
func (b *Bus) Width() int { return b.width }

// Stats reports transaction counts.
func (b *Bus) Stats() (reads, writes, bursts uint64) { return b.reads, b.writes, b.bursts }

// Record registers in ch every time and counter a transaction moves on the
// bus: its busy-until mark and its read, write and burst counts.
func (b *Bus) Record(ch *sim.Chain) {
	b.res.Record(ch)
	ch.Count(&b.reads, &b.writes, &b.bursts)
}

// Map attaches a slave at [base, base+size). Overlaps are rejected.
func (b *Bus) Map(base, size uint32, s Slave) error {
	if size == 0 {
		return fmt.Errorf("bus %s: empty mapping for %s", b.name, s.Name())
	}
	for _, m := range b.maps {
		if base < m.base+m.size && m.base < base+size {
			return fmt.Errorf("bus %s: mapping for %s overlaps %s", b.name, s.Name(), m.slave.Name())
		}
	}
	b.maps = append(b.maps, mapping{base: base, size: size, slave: s})
	return nil
}

// decode finds the slave owning addr.
func (b *Bus) decode(addr uint32) (Slave, uint32, error) {
	for _, m := range b.maps {
		if addr >= m.base && addr-m.base < m.size {
			return m.slave, addr - m.base, nil
		}
	}
	return nil, 0, fmt.Errorf("bus %s: no slave at address %#08x (bus error)", b.name, addr)
}

// Target is an address resolved with no timing effect: the slave that
// owns it and the address within that slave, behind the bridge when the
// address lies behind it.
type Target struct {
	Slave Slave
	Off   uint32
	bus   *Bus    // the bus the address was resolved on
	br    *Bridge // the bridge an access crosses, nil when it crosses none
}

// Resolve finds the slave owning addr as a transaction would, forwarding
// through the bridge to the slave behind it, but occupies, queues and
// counts nothing.
func (b *Bus) Resolve(addr uint32) (Target, error) {
	s, off, err := b.decode(addr)
	if err != nil {
		return Target{}, err
	}
	br, ok := s.(*Bridge)
	if !ok {
		return Target{Slave: s, Off: off, bus: b}, nil
	}
	t, err := br.opb.Resolve(br.base + off)
	t.bus, t.br = b, br
	return t, err
}

// Record registers in ch every time and counter a single access to the
// target moves on its way: the bus it was resolved on and, behind the
// bridge, the bridge and the bus beyond it.
func (t Target) Record(ch *sim.Chain) {
	t.bus.Record(ch)
	if t.br != nil {
		t.br.Record(ch)
		t.br.opb.Record(ch)
	}
}

// checkSize validates an access size against the bus width.
func (b *Bus) checkSize(size int) error {
	switch size {
	case 1, 2, 4:
		return nil
	case 8:
		if b.width >= 8 {
			return nil
		}
		return fmt.Errorf("bus %s: 64-bit access on a 32-bit bus", b.name)
	default:
		return fmt.Errorf("bus %s: unsupported access size %d", b.name, size)
	}
}

// beats returns the number of data beats for size bytes.
func (b *Bus) beats(size int) int {
	n := (size + b.width - 1) / b.width
	if n < 1 {
		n = 1
	}
	return n
}

// Read performs a blocking single read: the caller (the CPU) is stalled for
// the queueing delay plus the transaction; the kernel is advanced.
func (b *Bus) Read(addr uint32, size int) (uint64, error) {
	v, d, err := b.readTransact(addr, size)
	if err != nil {
		return 0, err
	}
	_, done := b.res.Acquire(d)
	b.k.AdvanceTo(done)
	return v, nil
}

// readTransact performs the functional read and computes the duration.
func (b *Bus) readTransact(addr uint32, size int) (uint64, sim.Time, error) {
	if err := b.checkSize(size); err != nil {
		return 0, 0, err
	}
	s, off, err := b.decode(addr)
	if err != nil {
		return 0, 0, err
	}
	v, waits := s.Read(off, size)
	cycles := b.p.ArbCycles + waits + b.p.ReadExtra + b.beats(size)*b.p.BeatCycles
	b.reads++
	return v, b.clk.Cycles(uint64(cycles)), nil
}

// Write performs a blocking single write.
func (b *Bus) Write(addr uint32, val uint64, size int) error {
	d, err := b.writeTransact(addr, val, size)
	if err != nil {
		return err
	}
	_, done := b.res.Acquire(d)
	b.k.AdvanceTo(done)
	return nil
}

// WritePosted performs the functional write immediately and occupies the bus
// in the background, returning the completion time without advancing the
// kernel. CPU write buffers and the bridge's posted writes use it.
func (b *Bus) WritePosted(addr uint32, val uint64, size int) (sim.Time, error) {
	d, err := b.writeTransact(addr, val, size)
	if err != nil {
		return 0, err
	}
	_, done := b.res.Acquire(d)
	return done, nil
}

func (b *Bus) writeTransact(addr uint32, val uint64, size int) (sim.Time, error) {
	if err := b.checkSize(size); err != nil {
		return 0, err
	}
	s, off, err := b.decode(addr)
	if err != nil {
		return 0, err
	}
	return b.wrote(b.writeCycles(size), s.Write(off, val, size)), nil
}

// writeCycles is the protocol cost of one single write of size bytes,
// before the slave's wait states.
func (b *Bus) writeCycles(size int) int {
	return b.p.ArbCycles + b.p.WriteExtra + b.beats(size)*b.p.BeatCycles
}

// wrote counts one single write that cost cycles plus the slave waits and
// returns its duration on the bus.
func (b *Bus) wrote(cycles, waits int) sim.Time {
	b.writes++
	return b.clk.Cycles(uint64(cycles + waits))
}

// Stream is a run of single writes of one size to one address, with the
// size check and address decode done once. Each Post has exactly the
// effect and timing of the matching WritePosted call.
type Stream struct {
	b      *Bus
	cycles int // writeCycles of the access size
	sink   Sink
	bulk   BulkSink // sink, when it takes inert runs in bulk
}

// OpenStream resolves addr for a run of size-byte writes. A StreamSlave
// resolves its own target once too; any other slave is written per word.
func (b *Bus) OpenStream(addr uint32, size int) (Stream, error) {
	if err := b.checkSize(size); err != nil {
		return Stream{}, err
	}
	s, off, err := b.decode(addr)
	if err != nil {
		return Stream{}, err
	}
	st := Stream{b: b, cycles: b.writeCycles(size)}
	if ss, ok := s.(StreamSlave); ok {
		st.sink = ss.WriteStream(off, size)
	} else {
		st.sink = SinkFunc(func(val uint64) int { return s.Write(off, val, size) })
	}
	st.bulk, _ = st.sink.(BulkSink)
	return st, nil
}

// Post is WritePosted for one word of the stream: it performs the write
// and occupies the bus, and returns the completion time without advancing
// the kernel.
func (st *Stream) Post(val uint64) sim.Time {
	_, done := st.b.res.Acquire(st.b.wrote(st.cycles, st.sink.Write(val)))
	return done
}

// Bulk reports whether the stream's target is a BulkSink. Inert, Record
// and WriteWords apply only to such a stream; they extend the sink's to
// the bus's own busy-until mark and write count.
func (st *Stream) Bulk() bool { return st.bulk != nil }

// Inert reports how many of the next words posted are inert.
func (st *Stream) Inert() int { return st.bulk.Inert() }

// Record registers in ch every time and counter a Post moves.
func (st *Stream) Record(ch *sim.Chain) {
	st.b.Record(ch)
	st.bulk.Record(ch)
}

// WriteWords has the functional effect of one Post per word for at most
// Inert() words, leaving their timing to the chain.
func (st *Stream) WriteWords(ws []uint32) { st.bulk.WriteWords(ws) }

// BurstRead performs a functional+timed burst read of beats bus-width beats
// starting at addr, in the background (no kernel advance). It returns the
// data and the completion time.
func (b *Bus) BurstRead(addr uint32, beats int) ([]uint64, sim.Time, error) {
	s, off, err := b.decode(addr)
	if err != nil {
		return nil, 0, err
	}
	bs, ok := s.(BurstSlave)
	if !ok {
		return nil, 0, fmt.Errorf("bus %s: slave %s does not support bursts", b.name, s.Name())
	}
	if err := b.checkBurst(addr, beats); err != nil {
		return nil, 0, err
	}
	data := make([]uint64, beats)
	for i := range data {
		v, _ := bs.Read(off+uint32(i*b.width), b.width)
		data[i] = v
	}
	waits := bs.BurstWaits(off, beats, false)
	cycles := b.p.ArbCycles + waits + b.p.ReadExtra + beats*b.p.BeatCycles
	_, done := b.res.Acquire(b.clk.Cycles(uint64(cycles)))
	b.bursts++
	return data, done, nil
}

// BurstWrite performs a functional+timed burst write in the background.
func (b *Bus) BurstWrite(addr uint32, data []uint64) (sim.Time, error) {
	s, off, err := b.decode(addr)
	if err != nil {
		return 0, err
	}
	bs, ok := s.(BurstSlave)
	if !ok {
		return 0, fmt.Errorf("bus %s: slave %s does not support bursts", b.name, s.Name())
	}
	if err := b.checkBurst(addr, len(data)); err != nil {
		return 0, err
	}
	for i, v := range data {
		bs.Write(off+uint32(i*b.width), v, b.width)
	}
	waits := bs.BurstWaits(off, len(data), true)
	cycles := b.p.ArbCycles + waits + b.p.WriteExtra + len(data)*b.p.BeatCycles
	_, done := b.res.Acquire(b.clk.Cycles(uint64(cycles)))
	b.bursts++
	return done, nil
}

// BurstPenalty occupies the bus for the duration of a burst without data
// movement. The cache model uses it for line fills and write-backs, whose
// data is functionally already in memory (the cache is a timing model).
func (b *Bus) BurstPenalty(addr uint32, beats int, write bool) (sim.Time, error) {
	s, off, err := b.decode(addr)
	if err != nil {
		return 0, err
	}
	waits := 0
	if bs, ok := s.(BurstSlave); ok {
		waits = bs.BurstWaits(off, beats, write)
	} else {
		// Non-burst slaves degrade to per-beat wait states.
		if write {
			waits = beats * s.Write(off, 0, b.width)
		} else {
			_, w := s.Read(off, b.width)
			waits = beats * w
		}
	}
	extra := b.p.ReadExtra
	if write {
		extra = b.p.WriteExtra
	}
	cycles := b.p.ArbCycles + waits + extra + beats*b.p.BeatCycles
	_, done := b.res.Acquire(b.clk.Cycles(uint64(cycles)))
	b.bursts++
	return done, nil
}

func (b *Bus) checkBurst(addr uint32, beats int) error {
	if beats <= 0 {
		return fmt.Errorf("bus %s: empty burst", b.name)
	}
	// The whole burst must stay within one mapping.
	if _, _, err := b.decode(addr + uint32(beats*b.width) - 1); err != nil {
		return fmt.Errorf("bus %s: burst crosses mapping boundary: %w", b.name, err)
	}
	return nil
}

// Peek reads functionally with no timing effect (debugger/test access).
// Behind the bridge it reads the slave there directly.
func (b *Bus) Peek(addr uint32, size int) (uint64, error) {
	t, err := b.Resolve(addr)
	if err != nil {
		return 0, err
	}
	v, _ := t.Slave.Read(t.Off, size)
	return v, nil
}

// Poke writes functionally with no timing effect, through the bridge as
// Peek reads.
func (b *Bus) Poke(addr uint32, val uint64, size int) error {
	t, err := b.Resolve(addr)
	if err != nil {
		return err
	}
	t.Slave.Write(t.Off, val, size)
	return nil
}
