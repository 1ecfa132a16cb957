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
	// PostDepth is the posted-write queue depth.
	PostDepth int

	posted []uint64 // completion times (femtoseconds) of in-flight writes
	reads  uint64
	writes uint64
}

// NewBridge returns a bridge forwarding to opb. plb is the bus the bridge
// lives on (used only for clock conversion); base is the OPB address the
// bridge's PLB window begins at.
func NewBridge(plb, opb *Bus, base uint32, requestCycles, postDepth int) *Bridge {
	if postDepth < 1 {
		postDepth = 1
	}
	return &Bridge{opb: opb, plb: plb, base: base, RequestCycles: requestCycles, PostDepth: postDepth}
}

// Name implements Slave.
func (br *Bridge) Name() string { return "plb2opb-bridge" }

// Stats reports forwarded transaction counts.
func (br *Bridge) Stats() (reads, writes uint64) { return br.reads, br.writes }

// Read implements Slave: the PLB-side wait states cover the complete OPB
// transaction plus bridge overhead.
func (br *Bridge) Read(addr uint32, size int) (uint64, int) {
	br.reads++
	if size > 4 {
		// The bridge narrows 64-bit requests into two OPB transfers.
		lo, w1 := br.Read(addr, 4)
		hi, w2 := br.Read(addr+4, 4)
		return lo<<32 | hi, w1 + w2 // big-endian: low address is high half
	}
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
	br.writes++
	if size > 4 {
		w1 := br.Write(addr, val>>32, 4)
		w2 := br.Write(addr+4, val&0xFFFFFFFF, 4)
		return w1 + w2
	}
	d, err := br.opb.writeTransact(br.base+addr, val, size)
	if err != nil {
		return br.RequestCycles
	}
	_, done := br.opb.res.Acquire(d)
	br.reapPosted()
	stall := 0
	if len(br.posted) >= br.PostDepth {
		// Queue full: the PLB side stalls until the oldest write retires.
		oldest := br.posted[0]
		br.posted = append(br.posted[:0], br.posted[1:]...)
		if now := uint64(br.plb.k.Now()); oldest > now {
			stall = int(br.plb.clk.CyclesIn(sim.Time(oldest-now))) + 1
		}
	}
	br.posted = append(br.posted, uint64(done))
	return br.RequestCycles + stall
}

// drainTime returns how long from now until all posted writes retire.
func (br *Bridge) drainTime() sim.Time {
	br.reapPosted()
	if len(br.posted) == 0 {
		return 0
	}
	last := br.posted[len(br.posted)-1]
	now := uint64(br.plb.k.Now())
	if last <= now {
		return 0
	}
	return sim.Time(last - now)
}

// reapPosted drops the writes that have retired by now. It compacts the
// queue in place, so its backing array is reused rather than reallocated.
func (br *Bridge) reapPosted() {
	now := uint64(br.plb.k.Now())
	i := 0
	for i < len(br.posted) && br.posted[i] <= now {
		i++
	}
	br.posted = append(br.posted[:0], br.posted[i:]...)
}
