package bus

import "repro/internal/sim"

// Bridge is the PLB→OPB bridge: a PLB slave that forwards accesses to the
// OPB as that bus's master. Reads block for the full OPB round trip plus the
// bridge's own latency; writes are posted (the PLB side completes once the
// write is accepted, while the OPB transaction drains in the background) —
// which is why removing the bridge from the data path helps reads much more
// than writes (§4.2).
type Bridge struct {
	opb *Bus
	plb *Bus
	// base is added to forwarded addresses (the bridge's PLB window maps
	// onto this OPB base).
	base uint32
	// RequestCycles is the bridge's PLB-side handshake latency.
	RequestCycles int

	// posted holds the OPB completion times of the last writes, one per
	// slot of the posted-write queue, oldest first; those at or before now
	// have retired. They only grow, since the OPB serves in order.
	posted []sim.Time
	reads  uint64
	writes uint64
}

// NewBridge returns a bridge forwarding to opb. plb is the bus the bridge
// lives on (used only for clock conversion); base is the OPB address the
// bridge's PLB window begins at.
func NewBridge(plb, opb *Bus, base uint32, requestCycles, postDepth int) *Bridge {
	return &Bridge{opb: opb, plb: plb, base: base, RequestCycles: requestCycles, posted: make([]sim.Time, max(postDepth, 1))}
}

// Name implements Slave.
func (br *Bridge) Name() string { return "plb2opb-bridge" }

// Stats reports forwarded transaction counts. A 64-bit access counts as
// the two 32-bit OPB transfers it is narrowed into, as on the OPB itself.
func (br *Bridge) Stats() (reads, writes uint64) { return br.reads, br.writes }

// Record registers in ch every time and counter a forwarded access moves in
// the bridge: its post queue and its read and write counts. The OPB
// registers its own.
func (br *Bridge) Record(ch *sim.Chain) {
	for i := range br.posted {
		ch.Time(&br.posted[i])
	}
	ch.Count(&br.reads, &br.writes)
}

// Read implements Slave: the PLB-side wait states cover the complete OPB
// transaction plus bridge overhead.
func (br *Bridge) Read(addr uint32, size int) (uint64, int) {
	if size > 4 {
		// The bridge narrows 64-bit requests into two OPB transfers.
		lo, w1 := br.Read(addr, 4)
		hi, w2 := br.Read(addr+4, 4)
		return lo<<32 | hi, w1 + w2 // big-endian: low address is high half
	}
	br.reads++
	// A read must first drain posted writes (ordering).
	drain := br.drainTime()
	v, d, err := br.opb.readTransact(br.base+addr, size)
	if err != nil {
		// Bus errors surface as all-ones data, as on hardware.
		return ^uint64(0), br.RequestCycles
	}
	_, done := br.opb.res.Acquire(d + drain)
	now := br.plb.k.Now()
	waitCycles := int(br.plb.clk.CyclesIn(done-now)) + 1
	return v, br.RequestCycles + waitCycles
}

// Write implements Slave with posted-write semantics.
func (br *Bridge) Write(addr uint32, val uint64, size int) int {
	if size > 4 {
		w1 := br.Write(addr, val>>32, 4)
		w2 := br.Write(addr+4, val&0xFFFFFFFF, 4)
		return w1 + w2
	}
	br.writes++
	d, err := br.opb.writeTransact(br.base+addr, val, size)
	if err != nil {
		return br.RequestCycles
	}
	_, done := br.opb.res.Acquire(d)
	return br.post(done)
}

// WriteStream implements StreamSlave: the OPB target is resolved once, and
// each word is then forwarded and posted exactly as Write does. The sink
// takes inert runs in bulk when its OPB target does.
func (br *Bridge) WriteStream(addr uint32, size int) Sink {
	st, err := br.opb.OpenStream(br.base+addr, size)
	if size > 4 || err != nil {
		return SinkFunc(func(val uint64) int { return br.Write(addr, val, size) })
	}
	if st.Bulk() {
		return &bridgeBulk{bridgeSink{br, st}}
	}
	return &bridgeSink{br, st}
}

// bridgeSink forwards a run of single writes to its OPB stream.
type bridgeSink struct {
	br *Bridge
	st Stream
}

func (s *bridgeSink) Write(val uint64) int {
	s.br.writes++
	return s.br.post(s.st.Post(val))
}

// bridgeBulk is a bridgeSink whose OPB target is a BulkSink.
type bridgeBulk struct{ bridgeSink }

func (s *bridgeBulk) Inert() int { return s.st.Inert() }

func (s *bridgeBulk) Record(ch *sim.Chain) {
	s.br.Record(ch)
	s.st.Record(ch)
}

func (s *bridgeBulk) WriteWords(ws []uint32) { s.st.WriteWords(ws) }

// post queues one forwarded write that retires on the OPB at done in the
// oldest slot and returns the PLB-side wait cycles: the handshake, plus a
// stall until the oldest write retires when every slot is still in
// flight.
func (br *Bridge) post(done sim.Time) int {
	stall := 0
	if oldest, now := br.posted[0], br.plb.k.Now(); oldest > now {
		stall = int(br.plb.clk.CyclesIn(oldest-now)) + 1
	}
	copy(br.posted, br.posted[1:])
	br.posted[len(br.posted)-1] = done
	return br.RequestCycles + stall
}

// drainTime returns how long from now until all posted writes retire.
func (br *Bridge) drainTime() sim.Time {
	last, now := br.posted[len(br.posted)-1], br.plb.k.Now()
	if last <= now {
		return 0
	}
	return last - now
}
