package hwcore

// SHA1 is the hardware SHA-1 core of §4.2 (RFC 3174, the paper's reference
// [4]). The message is padded by software; the core consumes 512-bit blocks
// as sixteen big-endian words and updates the digest after each block. This
// implementation is too large for the 32-bit system's dynamic area — as in
// the paper ("our implementation does not fit into the dynamic area of the
// 32-bit system, so no comparison can be done").
//
// Dock protocol (32-bit words):
//
//	writes: 16 words per block, big-endian, block after block
//	reads:  h0..h4 on five consecutive reads
type SHA1 struct {
	h       [5]uint32
	block   [16]uint32
	n       int
	readIdx int
	blocks  uint64
}

// NewSHA1 returns a reset SHA-1 core.
func NewSHA1() *SHA1 {
	s := &SHA1{}
	s.Reset()
	return s
}

// Name implements hw.Core.
func (s *SHA1) Name() string { return "sha1" }

// Reset implements hw.Core: loads the initial digest.
func (s *SHA1) Reset() {
	*s = SHA1{h: [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}}
}

// CyclesPerWord implements hw.Core: 80 rounds per 8 beats of block data.
func (s *SHA1) CyclesPerWord() int { return 10 }

// Write implements hw.Core.
func (s *SHA1) Write(v uint64, size int) {
	if size == 8 {
		s.writeWord(uint32(v >> 32))
		s.writeWord(uint32(v))
		return
	}
	s.writeWord(uint32(v))
}

func (s *SHA1) writeWord(w uint32) {
	s.block[s.n] = w
	s.n++
	if s.n == 16 {
		s.n = 0
		s.process()
	}
}

// process runs the 80-round compression function on the buffered block.
func (s *SHA1) process() {
	var w [80]uint32
	copy(w[:16], s.block[:])
	for t := 16; t < 80; t++ {
		w[t] = rotl(w[t-3]^w[t-8]^w[t-14]^w[t-16], 1)
	}
	a, b, c, d, e := s.h[0], s.h[1], s.h[2], s.h[3], s.h[4]
	for t := 0; t < 80; t++ {
		var f, k uint32
		switch {
		case t < 20:
			f, k = b&c|^b&d, 0x5A827999
		case t < 40:
			f, k = b^c^d, 0x6ED9EBA1
		case t < 60:
			f, k = b&c|b&d|c&d, 0x8F1BBCDC
		default:
			f, k = b^c^d, 0xCA62C1D6
		}
		tmp := rotl(a, 5) + f + e + w[t] + k
		e, d, c, b, a = d, c, rotl(b, 30), a, tmp
	}
	s.h[0] += a
	s.h[1] += b
	s.h[2] += c
	s.h[3] += d
	s.h[4] += e
}

func rotl(x uint32, n uint) uint32 { return x<<n | x>>(32-n) }

// Read implements hw.Core: digest words h0..h4 on consecutive reads.
func (s *SHA1) Read() uint64 {
	v := s.h[s.readIdx%5]
	s.readIdx++
	return uint64(v)
}

// PopOut implements hw.Core.
func (s *SHA1) PopOut() (uint64, bool) { return 0, false }
