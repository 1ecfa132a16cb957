package tasks

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/platform"
)

// JenkinsArgs describes a hash run over a key in external memory.
type JenkinsArgs struct {
	KeyAddr uint32
	KeyLen  int
	InitVal uint32
}

// leTail composes up to n tail bytes little-endian (byte loads, as the C
// code's fall-through switch does).
func leTail(c *cpu.CPU, addr uint32, n int) uint32 {
	var v uint32
	for i := 0; i < n; i++ {
		v |= uint32(c.LB(addr+uint32(i))) << (8 * uint(i))
		c.Op(2)
	}
	return v
}

// jenkinsMixOps is the cost of the mix network plus loop bookkeeping in the
// compiled C: 36 mix operations and ~6 of pointer/counter upkeep.
const jenkinsMixOps = 42

// JenkinsSW is the software baseline: the public-domain lookup2 code. Its
// arithmetic is "optimized for 32-bit CPUs" (§3.2), but it consumes the key
// byte-wise to stay alignment- and endian-agnostic, exactly like the
// original C (a += k[0] + ((ub4)k[1]<<8) + ...).
func JenkinsSW(s *platform.System, a JenkinsArgs) uint32 {
	c := s.CPU
	c.Call()
	c.Op(8) // init a, b, c and pointers
	av, bv := uint32(0x9e3779b9), uint32(0x9e3779b9)
	cv := a.InitVal
	addr := a.KeyAddr
	n := a.KeyLen
	for n >= 12 {
		av += leTail(c, addr, 4)
		bv += leTail(c, addr+4, 4)
		cv += leTail(c, addr+8, 4)
		av, bv, cv = mix(av, bv, cv)
		c.Op(jenkinsMixOps)
		c.Branch(true)
		addr += 12
		n -= 12
	}
	// Tail: byte-wise composition, then the final mix.
	cv += uint32(a.KeyLen)
	c.Op(3)
	av += leTail(c, addr, min(n, 4))
	if n > 4 {
		bv += leTail(c, addr+4, min(n-4, 4))
	}
	if n > 8 {
		cv += leTail(c, addr+8, n-8) << 8
	}
	av, bv, cv = mix(av, bv, cv)
	c.Op(jenkinsMixOps)
	c.Ret()
	return cv
}

// JenkinsHW streams the key into the hash module in the dynamic area: the
// whole hashing function runs in hardware, the CPU only moves data — which
// is why "the data transfer times are significant when compared to the
// original software processing times" (§3.2).
func JenkinsHW(s *platform.System, a JenkinsArgs) (uint32, error) {
	if cur := s.CurrentModule(); cur != "jenkins" {
		return 0, fmt.Errorf("tasks: jenkins module not loaded (current %q)", cur)
	}
	resetCore(s)
	c := s.CPU
	d := s.DockData()
	c.Call()
	c.Op(6)
	c.SW(d, uint32(a.KeyLen))
	c.SW(d, a.InitVal)
	// Each full round: three little-endian words, each a byte-reversed
	// load (lwbrx) from big-endian memory stored to the dock, then the
	// loop's pointer and counter upkeep.
	rounds := a.KeyLen / 12
	c.Feed(d, a.KeyAddr, rounds, 3, 6, true)
	addr := a.KeyAddr + uint32(12*rounds)
	n := a.KeyLen - 12*rounds
	// Tail round, composed exactly as the hardware expects.
	var tw [3]uint32
	tw[0] = leTail(c, addr, min(n, 4))
	if n > 4 {
		tw[1] = leTail(c, addr+4, min(n-4, 4))
	}
	if n > 8 {
		tw[2] = leTail(c, addr+8, n-8)
	}
	c.Op(6)
	c.SW(d, tw[0])
	c.SW(d, tw[1])
	c.SW(d, tw[2])
	c.Sync()
	v := c.LW(d)
	c.Ret()
	return v, nil
}

// mix is the lookup2 mixing function (functional part of the software
// model; its cost is accounted via jenkinsMixOps).
func mix(a, b, c uint32) (uint32, uint32, uint32) {
	a -= b
	a -= c
	a ^= c >> 13
	b -= c
	b -= a
	b ^= a << 8
	c -= a
	c -= b
	c ^= b >> 13
	a -= b
	a -= c
	a ^= c >> 12
	b -= c
	b -= a
	b ^= a << 16
	c -= a
	c -= b
	c ^= b >> 5
	a -= b
	a -= c
	a ^= c >> 3
	b -= c
	b -= a
	b ^= a << 10
	c -= a
	c -= b
	c ^= b >> 15
	return a, b, c
}
