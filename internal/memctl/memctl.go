// Package memctl provides the memory controllers of the two systems: the
// on-chip BRAM controller (PLB), the external SRAM controller (OPB, 32-bit
// system) and the DDR SDRAM controller (PLB, 64-bit system). Backing storage
// is big-endian, matching the PowerPC 405, and paged so that large memories
// cost only what is touched.
package memctl

import (
	"encoding/binary"
	"fmt"
)

const pageBits = 16 // 64 KB pages
const pageSize = 1 << pageBits

// Memory is a byte-addressable big-endian backing store with configurable
// wait states, shared by all controllers.
type Memory struct {
	name       string
	size       int
	pages      map[uint32][]byte
	readWaits  int
	writeWaits int
	// burstFirstWaits is the first-access latency of a burst; subsequent
	// beats stream at bus rate. Negative disables burst support.
	burstFirstWaits int

	reads, writes uint64
}

// New returns a memory of the given size with the given wait states.
func New(name string, size int, readWaits, writeWaits, burstFirstWaits int) *Memory {
	return &Memory{
		name:            name,
		size:            size,
		pages:           make(map[uint32][]byte),
		readWaits:       readWaits,
		writeWaits:      writeWaits,
		burstFirstWaits: burstFirstWaits,
	}
}

// NewBRAM returns an on-chip BRAM block: single-cycle, burstable.
func NewBRAM(size int) *Memory { return New("bram", size, 0, 0, 0) }

// NewSRAM returns the 32 MB external static memory of the 32-bit system,
// attached to the OPB ("using the OPB instead of the PLB to access external
// memory requires a much smaller controller", §3.1). Asynchronous SRAM plus
// controller overhead costs wait states on every access; the OPB EMC does
// not burst.
func NewSRAM() *Memory { return New("sram", 32<<20, 4, 3, -1) }

// NewDDR returns the 512 MB DDR memory of the 64-bit system on the PLB:
// higher first-access latency, streaming bursts.
func NewDDR() *Memory { return New("ddr", 512<<20, 6, 2, 6) }

// Name implements bus.Slave.
func (m *Memory) Name() string { return m.name }

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return m.size }

// Stats returns access counts.
func (m *Memory) Stats() (reads, writes uint64) { return m.reads, m.writes }

// store copies data into memory at addr one page-sized chunk at a time,
// allocating each page it touches. The range must lie inside memory.
func (m *Memory) store(addr uint32, data []byte) {
	for len(data) > 0 {
		idx := addr >> pageBits
		p := m.pages[idx]
		if p == nil {
			p = make([]byte, pageSize)
			m.pages[idx] = p
		}
		n := copy(p[addr&(pageSize-1):], data)
		data = data[n:]
		addr += uint32(n)
	}
}

// load copies memory at addr into out one page-sized chunk at a time. out
// arrives zeroed, so an untouched page, which reads as zero, copies
// nothing. The range must lie inside memory.
func (m *Memory) load(addr uint32, out []byte) {
	for len(out) > 0 {
		off := addr & (pageSize - 1)
		n := min(len(out), pageSize-int(off))
		if p := m.pages[addr>>pageBits]; p != nil {
			copy(out[:n], p[off:])
		}
		out = out[n:]
		addr += uint32(n)
	}
}

// Read implements bus.Slave.
func (m *Memory) Read(addr uint32, size int) (uint64, int) {
	m.reads++
	return m.PeekBE(addr, size), m.readWaits
}

// Write implements bus.Slave.
func (m *Memory) Write(addr uint32, val uint64, size int) int {
	m.writes++
	m.PokeBE(addr, val, size)
	return m.writeWaits
}

// PlainTiming implements bus.PlainSlave: a single access waits its kind's
// fixed wait states, whatever the address, value or contents.
func (m *Memory) PlainTiming() {}

// BurstWaits implements bus.BurstSlave when bursts are supported.
func (m *Memory) BurstWaits(addr uint32, beats int, write bool) int {
	if m.burstFirstWaits < 0 {
		// Degenerate to per-beat wait states (OPB EMC behaviour).
		if write {
			return beats * m.writeWaits
		}
		return beats * m.readWaits
	}
	return m.burstFirstWaits
}

// ReadWords implements bus.WordReader: it fills ws as one Read(addr+4i, 4)
// per word would, counting as many reads, and looks each page up once.
func (m *Memory) ReadWords(addr uint32, ws []uint32) {
	m.reads += uint64(len(ws))
	var page []byte
	idx := ^uint32(0)
	for i := range ws {
		a := addr + uint32(4*i)
		off := a & (pageSize - 1)
		if int(a)+4 > m.size || off+4 > pageSize {
			ws[i] = uint32(m.PeekBE(a, 4))
			continue
		}
		if a>>pageBits != idx {
			idx = a >> pageBits
			page = m.pages[idx]
		}
		ws[i] = 0
		if page != nil {
			ws[i] = binary.BigEndian.Uint32(page[off:])
		}
	}
}

// PeekBE reads big-endian without timing effects. Out-of-range reads return
// all ones (floating bus).
func (m *Memory) PeekBE(addr uint32, size int) uint64 {
	if int(addr)+size > m.size {
		return ^uint64(0)
	}
	off := int(addr & (pageSize - 1))
	if off+size > pageSize { // straddles two pages
		var b [8]byte
		m.load(addr, b[8-size:])
		return binary.BigEndian.Uint64(b[:])
	}
	var v uint64
	if p := m.pages[addr>>pageBits]; p != nil {
		for _, c := range p[off : off+size] {
			v = v<<8 | uint64(c)
		}
	}
	return v
}

// PokeBE writes big-endian without timing effects. Out-of-range writes are
// dropped.
func (m *Memory) PokeBE(addr uint32, val uint64, size int) {
	if int(addr)+size > m.size {
		return
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], val)
	m.store(addr, b[8-size:])
}

// LoadBytes copies raw bytes into memory at addr (test/program loading).
func (m *Memory) LoadBytes(addr uint32, data []byte) error {
	if int(addr)+len(data) > m.size {
		return fmt.Errorf("memctl: %s: load of %d bytes at %#x out of range", m.name, len(data), addr)
	}
	m.store(addr, data)
	return nil
}

// ReadBytes copies size raw bytes out of memory at addr.
func (m *Memory) ReadBytes(addr uint32, size int) ([]byte, error) {
	if int(addr)+size > m.size {
		return nil, fmt.Errorf("memctl: %s: read of %d bytes at %#x out of range", m.name, size, addr)
	}
	out := make([]byte, size)
	m.load(addr, out)
	return out, nil
}
