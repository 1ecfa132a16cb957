package tasks

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/dock"
	"repro/internal/intc"
	"repro/internal/platform"
)

// ImageArgs describes a grayscale image task: 8-bit pixels at SrcA (and
// SrcB for the two-source tasks), result at Dst, N pixels. N must be a
// multiple of 8.
type ImageArgs struct {
	SrcA, SrcB, Dst uint32
	N               int
	Delta           int // brightness constant (signed)
	F               int // fade factor, 0..256
}

func (a ImageArgs) check() error {
	if a.N%8 != 0 || a.N == 0 {
		return fmt.Errorf("tasks: pixel count %d must be a positive multiple of 8", a.N)
	}
	return nil
}

// satAdd is the saturating byte add of the software models.
func satAdd(v int) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// BrightnessSW is the software baseline: plain byte-wise C with a
// saturating add per pixel.
func BrightnessSW(s *platform.System, a ImageArgs) error {
	if err := a.check(); err != nil {
		return err
	}
	c := s.CPU
	c.Call()
	c.Op(6)
	for i := 0; i < a.N; i++ {
		px := c.LB(a.SrcA + uint32(i))
		v := int(px) + a.Delta
		c.Op(5) // add, two clamp compares, select
		c.Branch(v < 0 || v > 255)
		c.SB(a.Dst+uint32(i), satAdd(v))
		c.Op(3) // pointer/counter upkeep
		c.Branch(true)
	}
	c.Ret()
	return nil
}

// BrightnessHW drives the brightness core with CPU-controlled transfers:
// four pixels per 32-bit transfer in each direction (§3.2).
func BrightnessHW(s *platform.System, a ImageArgs) error {
	if err := a.check(); err != nil {
		return err
	}
	if cur := s.CurrentModule(); cur != "brightness" {
		return fmt.Errorf("tasks: brightness module not loaded (current %q)", cur)
	}
	resetCore(s)
	c := s.CPU
	d := s.DockData()
	c.Call()
	c.Op(6)
	c.SW(d, uint32(uint16(int16(a.Delta))))
	for i := 0; i < a.N; i += 4 {
		w := c.LW(a.SrcA + uint32(i))
		c.SW(d, w)
		r := c.LW(d)
		c.SW(a.Dst+uint32(i), r)
		c.Op(4)
		c.Branch(true)
	}
	c.Sync()
	c.Ret()
	return nil
}

// BlendSW is the software baseline for additive blending.
func BlendSW(s *platform.System, a ImageArgs) error {
	if err := a.check(); err != nil {
		return err
	}
	c := s.CPU
	c.Call()
	c.Op(8)
	for i := 0; i < a.N; i++ {
		pa := c.LB(a.SrcA + uint32(i))
		pb := c.LB(a.SrcB + uint32(i))
		v := int(pa) + int(pb)
		c.Op(4)
		c.Branch(v > 255)
		c.SB(a.Dst+uint32(i), satAdd(v))
		c.Op(4)
		c.Branch(true)
	}
	c.Ret()
	return nil
}

// BlendHW drives the blending core: each 32-bit transfer carries two pixels
// from each image; results pack into groups of four before read-back, so
// the CPU reads once every two writes (§3.2). The packing work is the
// combine overhead the paper attributes to the CPU.
func BlendHW(s *platform.System, a ImageArgs) error {
	if err := a.check(); err != nil {
		return err
	}
	if cur := s.CurrentModule(); cur != "blend" {
		return fmt.Errorf("tasks: blend module not loaded (current %q)", cur)
	}
	return combineHW(s, a, 0)
}

// FadeSW is the software baseline for the fade effect (A-B)*f/256 + B.
func FadeSW(s *platform.System, a ImageArgs) error {
	if err := a.check(); err != nil {
		return err
	}
	c := s.CPU
	c.Call()
	c.Op(8)
	for i := 0; i < a.N; i++ {
		pa := c.LB(a.SrcA + uint32(i))
		pb := c.LB(a.SrcB + uint32(i))
		c.Mul()
		c.Op(5) // subtract, shift, add, pack
		v := int(pb) + ((int(pa)-int(pb))*a.F)>>8
		c.SB(a.Dst+uint32(i), byte(v))
		c.Op(4)
		c.Branch(true)
	}
	c.Ret()
	return nil
}

// FadeHW drives the fade core; the dataflow is identical to blending
// (§3.2: "the data transfer pattern is identical to the one used in the
// additive blending task").
func FadeHW(s *platform.System, a ImageArgs) error {
	if err := a.check(); err != nil {
		return err
	}
	if cur := s.CurrentModule(); cur != "fade" {
		return fmt.Errorf("tasks: fade module not loaded (current %q)", cur)
	}
	return combineHW(s, a, 1+a.F)
}

// combineHW is the shared two-source CPU-controlled driver. cfg != 0 sends
// one configuration word (the fade factor) first.
func combineHW(s *platform.System, a ImageArgs, cfg int) error {
	resetCore(s)
	c := s.CPU
	d := s.DockData()
	c.Call()
	c.Op(8)
	if cfg != 0 {
		c.SW(d, uint32(cfg-1))
	}
	// The CPU combines the two sources before each transfer: the C code
	// builds every dock word from individual pixels of both images
	// (byte loads plus shifts), which is the overhead the paper blames for
	// the smaller speedups of the two-source tasks (§3.2).
	pack2 := func(i int) uint32 {
		va0 := uint32(c.LB(a.SrcA + uint32(i)))
		va1 := uint32(c.LB(a.SrcA + uint32(i+1)))
		vb0 := uint32(c.LB(a.SrcB + uint32(i)))
		vb1 := uint32(c.LB(a.SrcB + uint32(i+1)))
		c.Op(6)
		return va0<<24 | va1<<16 | vb0<<8 | vb1
	}
	var held uint32 // result word collected every two writes
	for i := 0; i < a.N; i += 4 {
		c.SW(d, pack2(i))
		c.SW(d, pack2(i+2))
		held = c.LW(d)
		c.SW(a.Dst+uint32(i), held)
		c.Op(5)
		c.Branch(true)
	}
	c.Sync()
	c.Ret()
	return nil
}

// --- 64-bit DMA drivers (Table 12) ---

// fifoBlockBeats is the block size (in 64-bit beats) of block-interleaved
// DMA transfers: the output FIFO stores up to 2047 values, so blocks of
// 2040 keep it from overflowing (§4.2).
const fifoBlockBeats = 2040

// writeDesc stores one descriptor with CPU stores (the driver builds the
// chain at run time, which is part of the measured overhead).
func writeDesc(c *cpu.CPU, addr, next, mem, length, flags uint32) {
	c.SW(addr+0x00, next)
	c.SW(addr+0x04, mem)
	c.SW(addr+0x08, length)
	c.SW(addr+0x0C, flags)
	c.Op(6)
}

// runDMA programs the interrupt controller and the dock's DMA registers,
// starts the chain, and idles the CPU until the completion interrupt —
// "to avoid the need for polling the PLB dock to determine the status of
// the transfers, an interrupt generator was added to the dock" (§4.1).
func runDMA(s *platform.System, chain uint32) error {
	c := s.CPU
	base := s.DockBase()
	c.SW(platform.AddrINTC+intc.RegIER, 1<<uint(s.DockIRQ()))
	c.SW(base+dock.RegDMAPtr, chain)
	c.SW(base+dock.RegDMACtrl, dock.DMAStart|dock.DMAIrqEn)
	c.Sync()
	if err := c.WaitForIRQ(s.INTC.Pending); err != nil {
		return err
	}
	st := c.LW(base + dock.RegDMAStat)
	c.SW(base+dock.RegDMAStat, dock.DMADone)
	c.SW(platform.AddrINTC+intc.RegIAR, 1<<uint(s.DockIRQ()))
	if st&dock.DMAError != 0 {
		return fmt.Errorf("tasks: DMA error reported by the dock")
	}
	return nil
}

// buildInterleavedChain writes a feed/drain descriptor chain that moves
// srcBytes from src into the dock and the module's output back to dst,
// block-interleaved through the FIFO. ratio is output bytes per input byte
// times 256 (e.g. 256 for 1:1, 128 for the two-source cores).
func buildInterleavedChain(s *platform.System, scratch, src, dst uint32, srcBytes, ratio int) uint32 {
	c := s.CPU
	addr := scratch
	blockIn := fifoBlockBeats * 8
	off, outOff := 0, 0
	for off < srcBytes {
		n := srcBytes - off
		if n > blockIn {
			n = blockIn
		}
		outN := n * ratio / 256
		feed := addr
		drain := addr + 0x20
		nextOff := off + n
		var next uint32
		if nextOff < srcBytes {
			next = addr + 0x40
		}
		writeDesc(c, feed, drain, src+uint32(off), uint32(n), 0)
		writeDesc(c, drain, next, dst+uint32(outOff), uint32(outN), 1)
		off = nextOff
		outOff += outN
		addr += 0x40
	}
	// Make the chain visible to the DMA master.
	c.FlushRange(scratch, int(addr-scratch))
	return scratch
}

// BrightnessDMA is the 64-bit DMA-controlled implementation: the source
// image streams into the dynamic area with scatter-gather DMA (64-bit
// beats) and results return through the output FIFO, block-interleaved.
// "The 64-bit data transfers could be employed without additional work,
// since only one image is involved" (§4.2).
func BrightnessDMA(s *platform.System, a ImageArgs, scratch uint32) error {
	if err := a.check(); err != nil {
		return err
	}
	if !s.Is64 {
		return fmt.Errorf("tasks: DMA drivers need the 64-bit system")
	}
	if cur := s.CurrentModule(); cur != "brightness" {
		return fmt.Errorf("tasks: brightness module not loaded (current %q)", cur)
	}
	resetCore(s)
	c := s.CPU
	c.Call()
	c.Op(10)
	c.SW(s.DockData(), uint32(uint16(int16(a.Delta))))
	// Coherence: source must be in memory, destination lines discarded.
	c.FlushRange(a.SrcA, a.N)
	c.InvalidateRange(a.Dst, a.N)
	chain := buildInterleavedChain(s, scratch, a.SrcA, a.Dst, a.N, 256)
	if err := runDMA(s, chain); err != nil {
		return err
	}
	c.Ret()
	return nil
}

// prepCombined interleaves the two source images into the packed layout
// the two-source cores consume over the 64-bit channel (4 bytes of A, then
// 4 bytes of B per beat). This is the measured "data preparation" overhead
// of Table 12.
func prepCombined(s *platform.System, a ImageArgs, packed uint32) {
	c := s.CPU
	for i := 0; i < a.N; i += 4 {
		wa := c.LW(a.SrcA + uint32(i))
		wb := c.LW(a.SrcB + uint32(i))
		c.SW(packed+uint32(2*i), wa)
		c.SW(packed+uint32(2*i+4), wb)
		c.Op(6)
		c.Branch(true)
	}
}

// CombineDMAResult carries the time split of a two-source DMA run.
type CombineDMAResult struct {
	PrepTime int64 // data preparation, in femtoseconds (sim.Time)
}

// BlendDMA is the 64-bit DMA-controlled blending implementation.
func BlendDMA(s *platform.System, a ImageArgs, scratch, packed uint32) (CombineDMAResult, error) {
	if cur := s.CurrentModule(); cur != "blend" {
		return CombineDMAResult{}, fmt.Errorf("tasks: blend module not loaded (current %q)", cur)
	}
	return combineDMA(s, a, scratch, packed, 0)
}

// FadeDMA is the 64-bit DMA-controlled fade implementation.
func FadeDMA(s *platform.System, a ImageArgs, scratch, packed uint32) (CombineDMAResult, error) {
	if cur := s.CurrentModule(); cur != "fade" {
		return CombineDMAResult{}, fmt.Errorf("tasks: fade module not loaded (current %q)", cur)
	}
	return combineDMA(s, a, scratch, packed, 1+a.F)
}

func combineDMA(s *platform.System, a ImageArgs, scratch, packed uint32, cfg int) (CombineDMAResult, error) {
	var res CombineDMAResult
	if err := a.check(); err != nil {
		return res, err
	}
	if !s.Is64 {
		return res, fmt.Errorf("tasks: DMA drivers need the 64-bit system")
	}
	resetCore(s)
	c := s.CPU
	c.Call()
	c.Op(10)
	if cfg != 0 {
		c.SW(s.DockData(), uint32(cfg-1))
	}
	prepStart := s.Now()
	prepCombined(s, a, packed)
	c.FlushRange(packed, 2*a.N)
	res.PrepTime = int64(s.Now() - prepStart)
	c.InvalidateRange(a.Dst, a.N)
	chain := buildInterleavedChain(s, scratch, packed, a.Dst, 2*a.N, 128)
	if err := runDMA(s, chain); err != nil {
		return res, err
	}
	c.Ret()
	return res, nil
}
