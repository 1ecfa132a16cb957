package tasks

import (
	"fmt"

	"repro/internal/platform"
)

// SHA1Args describes a hash run over a message in external memory.
type SHA1Args struct {
	MsgAddr uint32
	MsgLen  int
	// PadAddr is scratch memory for the padded tail blocks.
	PadAddr uint32
}

// SHA-1 round structure shared by the software model.
func sha1F(t int, b, c, d uint32) (uint32, uint32) {
	switch {
	case t < 20:
		return b&c | ^b&d, 0x5A827999
	case t < 40:
		return b ^ c ^ d, 0x6ED9EBA1
	case t < 60:
		return b&c | b&d | c&d, 0x8F1BBCDC
	default:
		return b ^ c ^ d, 0xCA62C1D6
	}
}

func rotl(x uint32, n uint) uint32 { return x<<n | x>>(32-n) }

// sha1CallOverheadOps models the fixed per-call cost of the RFC 3174
// reference code: SHA1Reset, the SHA1Input state machine entry per chunk,
// SHA1Result's padding path and digest assembly. It is deliberately heavy —
// "the software implementation (taken from the RFC document) has a large
// overhead for smaller data sets" (§4.2).
const sha1CallOverheadOps = 2600

// SHA1SW is the software baseline, cost-modelled after the RFC 3174
// reference code: the message is copied byte-wise into the context's block
// buffer, the schedule array W[80] lives in memory, and each of the 80
// rounds loads its schedule word.
func SHA1SW(s *platform.System, a SHA1Args) ([5]uint32, error) {
	c := s.CPU
	blocks, err := sha1Pad(s, a)
	if err != nil {
		return [5]uint32{}, err
	}
	c.Call()
	c.Op(sha1CallOverheadOps)
	h := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	wBase := a.PadAddr + 0x1000 // the W[80] array on the stack
	for _, blockAddr := range blocks {
		// SHA1Input: byte-wise copy into Message_Block.
		for i := 0; i < 64; i++ {
			b := c.LB(blockAddr + uint32(i))
			c.SB(a.PadAddr+0x2000+uint32(i), b)
			c.Op(3)
		}
		var w [80]uint32
		// Schedule W[0..15]: four byte loads and shifts per word.
		for t := 0; t < 16; t++ {
			var v uint32
			for i := 0; i < 4; i++ {
				v = v<<8 | uint32(c.LB(a.PadAddr+0x2000+uint32(4*t+i)))
				c.Op(2)
			}
			w[t] = v
			c.SW(wBase+uint32(4*t), v)
			c.Op(1)
		}
		for t := 16; t < 80; t++ {
			x := c.LW(wBase+uint32(4*(t-3))) ^ c.LW(wBase+uint32(4*(t-8))) ^
				c.LW(wBase+uint32(4*(t-14))) ^ c.LW(wBase+uint32(4*(t-16)))
			v := rotl(x, 1)
			w[t] = v
			c.SW(wBase+uint32(4*t), v)
			c.Op(6)
			c.Branch(true)
		}
		av, bv, cv, dv, ev := h[0], h[1], h[2], h[3], h[4]
		for t := 0; t < 80; t++ {
			f, k := sha1F(t, bv, cv, dv)
			wt := c.LW(wBase + uint32(4*t))
			_ = wt // w[t] already known functionally; the load is the cost
			tmp := rotl(av, 5) + f + ev + w[t] + k
			ev, dv, cv, bv, av = dv, cv, rotl(bv, 30), av, tmp
			c.Op(12)
			c.Branch(true)
		}
		h[0] += av
		h[1] += bv
		h[2] += cv
		h[3] += dv
		h[4] += ev
		c.Op(10)
	}
	c.Ret()
	return h, nil
}

// SHA1HW drives the SHA-1 core in the dynamic area with CPU-controlled
// 32-bit transfers (Table 11's configuration).
func SHA1HW(s *platform.System, a SHA1Args) ([5]uint32, error) {
	if cur := s.CurrentModule(); cur != "sha1" {
		return [5]uint32{}, fmt.Errorf("tasks: sha1 module not loaded (current %q)", cur)
	}
	resetCore(s)
	c := s.CPU
	d := s.DockData()
	blocks, err := sha1Pad(s, a)
	if err != nil {
		return [5]uint32{}, err
	}
	c.Call()
	c.Op(30) // driver setup
	for _, blockAddr := range blocks {
		c.Feed(d, blockAddr, 16, 1, 2, false)
	}
	c.Sync()
	var h [5]uint32
	for i := range h {
		h[i] = c.LW(d)
		c.Op(1)
	}
	c.Ret()
	return h, nil
}

// sha1Pad builds the RFC padding in scratch memory under CPU cost and
// returns the addresses of all 64-byte blocks to process. Full payload
// blocks are processed in place; the padded tail (one or two blocks) is
// written to PadAddr.
func sha1Pad(s *platform.System, a SHA1Args) ([]uint32, error) {
	c := s.CPU
	full := a.MsgLen / 64
	var blocks []uint32
	for i := 0; i < full; i++ {
		blocks = append(blocks, a.MsgAddr+uint32(64*i))
	}
	rem := a.MsgLen - 64*full
	// Copy the remainder and append 0x80, zeros, and the bit length.
	tailLen := rem + 1 + 8
	tailBlocks := 1
	if tailLen > 64 {
		tailBlocks = 2
	}
	c.Op(12) // length math
	for i := 0; i < rem; i++ {
		b := c.LB(a.MsgAddr + uint32(64*full+i))
		c.SB(a.PadAddr+uint32(i), b)
		c.Op(3)
	}
	c.SB(a.PadAddr+uint32(rem), 0x80)
	for i := rem + 1; i < 64*tailBlocks-8; i++ {
		c.SB(a.PadAddr+uint32(i), 0)
		c.Op(2)
	}
	bits := uint64(a.MsgLen) * 8
	c.SW(a.PadAddr+uint32(64*tailBlocks-8), uint32(bits>>32))
	c.SW(a.PadAddr+uint32(64*tailBlocks-4), uint32(bits))
	c.Op(4)
	for i := 0; i < tailBlocks; i++ {
		blocks = append(blocks, a.PadAddr+uint32(64*i))
	}
	return blocks, nil
}
