package tasks

import (
	"fmt"

	"repro/internal/dock"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Transfer measures the raw data-movement cost between the dynamic region
// and external memory — the lower bound the developer uses "to make a first
// assessment of the improvements that can be obtained by moving a function
// from software to hardware" (§3.2). The passthrough module must be loaded.

// TransferKind selects one of the three measured patterns.
type TransferKind int

const (
	// TransferWrite is a sequence of write operations (memory → region).
	TransferWrite TransferKind = iota
	// TransferRead is a sequence of read operations (region → memory).
	TransferRead
	// TransferInterleaved alternates writes and reads.
	TransferInterleaved
)

func (k TransferKind) String() string {
	switch k {
	case TransferWrite:
		return "write"
	case TransferRead:
		return "read"
	default:
		return "write/read"
	}
}

// TransferCPU runs n 32-bit program-controlled transfers of the given kind
// and returns the average time per transfer. "Transfers between external
// memory and dynamic area use the data bus twice, since data is fetched
// from the origin to the CPU and then from the CPU to the destination"
// (§3.2) — both halves are included, as is the controlling software.
func TransferCPU(s *platform.System, kind TransferKind, n int) (sim.Time, error) {
	if cur := s.CurrentModule(); cur != "passthrough" {
		return 0, fmt.Errorf("tasks: passthrough module not loaded (current %q)", cur)
	}
	resetCore(s)
	c := s.CPU
	d := s.DockData()
	mem := s.MemBase() + 0x0010_0000
	c.Sync()
	start := s.Now()
	switch kind {
	case TransferWrite:
		c.Feed(d, mem, n, 1, 4, false)
	case TransferRead:
		for i := 0; i < n; i++ {
			w := c.LW(d)
			c.SW(mem+uint32(4*i), w)
			c.Op(4)
			c.Branch(true)
		}
	case TransferInterleaved:
		for i := 0; i < n; i++ {
			w := c.LW(mem + uint32(4*i))
			c.SW(d, w)
			r := c.LW(d)
			c.SW(mem+uint32(4*(n+i)), r)
			c.Op(6)
			c.Branch(true)
		}
	}
	c.Sync()
	total := s.Now() - start
	return total / sim.Time(n), nil
}

// TransferDMA runs n 64-bit DMA-controlled transfers of the given kind on
// the 64-bit system and returns the average time per 64-bit transfer
// (Table 8). Interleaved transfers are block-interleaved through the output
// FIFO, exactly as §4.2 describes.
func TransferDMA(s *platform.System, kind TransferKind, n int) (sim.Time, error) {
	if !s.Is64 {
		return 0, fmt.Errorf("tasks: DMA transfers need the 64-bit system")
	}
	if cur := s.CurrentModule(); cur != "passthrough" {
		return 0, fmt.Errorf("tasks: passthrough module not loaded (current %q)", cur)
	}
	resetCore(s)
	c := s.CPU
	scratch := s.MemBase() + 0x0080_0000
	src := s.MemBase() + 0x0010_0000
	dst := s.MemBase() + 0x0040_0000
	bytes := 8 * n

	c.Sync()
	start := s.Now()
	switch kind {
	case TransferWrite:
		// Feed blocks; the FIFO is reset between blocks since the results
		// are not collected in this pattern.
		addr := scratch
		off := 0
		for off < bytes {
			nb := bytes - off
			if nb > fifoBlockBeats*8 {
				nb = fifoBlockBeats * 8
			}
			var next uint32
			if off+nb < bytes {
				next = addr + 0x20
			}
			writeDesc(c, addr, next, src+uint32(off), uint32(nb), dock.DirToDock)
			off += nb
			addr += 0x20
		}
		c.FlushRange(scratch, int(addr-scratch))
		if err := runDMA(s, scratch); err != nil {
			return 0, err
		}
		s.DockFIFO().Reset()
	case TransferRead:
		// Drain pre-filled FIFO blocks to memory; refills are functional
		// (they model a producing circuit) and cost no time.
		off := 0
		for off < bytes {
			nb := bytes - off
			if nb > fifoBlockBeats*8 {
				nb = fifoBlockBeats * 8
			}
			prefillFIFO(s, nb/8)
			writeDesc(c, scratch, 0, dst+uint32(off), uint32(nb), dock.DirToMem)
			c.FlushRange(scratch, 0x20)
			if err := runDMA(s, scratch); err != nil {
				return 0, err
			}
			off += nb
		}
	case TransferInterleaved:
		chain := buildInterleavedChain(s, scratch, src, dst, bytes, 256)
		if err := runDMA(s, chain); err != nil {
			return 0, err
		}
	}
	c.Sync()
	total := s.Now() - start
	return total / sim.Time(n), nil
}

// prefillFIFO loads the active region dock's output FIFO functionally with
// n words.
func prefillFIFO(s *platform.System, n int) {
	core, out := s.Core(), s.DockFIFO()
	for i := 0; i < n; i++ {
		core.Write(uint64(i), 8)
	}
	// Move the produced words into the FIFO.
	for {
		v, ok := core.PopOut()
		if !ok {
			break
		}
		if !out.Push(v) {
			break
		}
	}
}
