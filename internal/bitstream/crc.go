package bitstream

import "sync"

// The configuration logic maintains a running 16-bit CRC over every
// register-write data word together with the register address, as on
// Virtex-II (polynomial x^16 + x^15 + x^2 + 1, i.e. 0x8005). Writing the
// expected value to the CRC register checks it; a mismatch aborts
// configuration. The CmdRCRC command resets it.
//
// crcSerial is the definition: it shifts the 37 input bits in one at a time.
// Every shift step is linear over GF(2) in the state and the input bit
// jointly, so a whole update is crc' = A(crc) ⊕ B(reg, data) for two linear
// maps A and B, and a linear map is the XOR of its values on the bytes of
// its argument. crcUpdate evaluates the same function with seven lookups
// into byte tables that init fills from crcSerial itself, so the table form
// equals the bit-serial definition on every input; the equivalence tests
// check this over all 65536 states.

const crcPoly uint32 = 0x8005

// crcSerial folds one (register, data) pair into the running CRC, bit by
// bit. The 37-bit value {addr[4:0], data[31:0]} is shifted in LSB first.
func crcSerial(crc uint16, reg Reg, data uint32) uint16 {
	val := uint64(reg&0x1F)<<32 | uint64(data)
	c := uint32(crc)
	for i := 0; i < 37; i++ {
		bit := uint32(val>>uint(i)) & 1
		msb := c >> 15 & 1
		c = c<<1 | (bit ^ msb)
		if msb != 0 {
			c ^= crcPoly // feedback taps (x^15, x^2 folded via poly)
		}
		c &= 0xFFFF
	}
	return uint16(c)
}

// The byte tables of crc' = A(crc) ⊕ B(reg, data): crcState[k] is A on
// state byte k, crcData[k] is B on data byte k, crcReg is B on the 5-bit
// register address.
//
// Four words w₀…w₃ fold in one step, as A⁴(crc) ⊕ Σⱼ A³⁻ʲ(B(reg, wⱼ)):
// crcState4[k] is A⁴ on state byte k, crcData4[4j+k] is A³⁻ʲ∘B on byte k
// of word j, and crcReg4 is the register's share of the sum,
// (A³ ⊕ A² ⊕ A ⊕ 1)(B(reg, 0)). Only the step's two state lookups wait
// for the previous step's CRC.
var (
	crcState  [2][256]uint16
	crcData   [4][256]uint16
	crcReg    [32]uint16
	crcState4 [2][256]uint16
	crcData4  [16][256]uint16
	crcReg4   [32]uint16
)

func init() {
	// serial4 folds four words written to reg into crc bit by bit.
	serial4 := func(crc uint16, reg Reg, words [4]uint32) uint16 {
		for _, w := range words {
			crc = crcSerial(crc, reg, w)
		}
		return crc
	}
	for i := 0; i < 256; i++ {
		for k := range crcState {
			crcState[k][i] = crcSerial(uint16(i)<<(8*k), 0, 0)
			crcState4[k][i] = serial4(uint16(i)<<(8*k), 0, [4]uint32{})
		}
		for k := range crcData {
			crcData[k][i] = crcSerial(0, 0, uint32(i)<<(8*k))
			for j := 0; j < 4; j++ {
				var words [4]uint32
				words[j] = uint32(i) << (8 * k)
				crcData4[4*j+k][i] = serial4(0, 0, words)
			}
		}
	}
	for r := range crcReg {
		crcReg[r] = crcSerial(0, Reg(r), 0)
		crcReg4[r] = serial4(0, Reg(r), [4]uint32{})
	}
}

// crcPow is A^k in the form of crcState, which is A: the map on each byte
// of the state.
type crcPow [2][256]uint16

// apply returns A^k(crc).
func (p *crcPow) apply(crc uint16) uint16 { return p[0][byte(crc)] ^ p[1][crc>>8] }

// crcPows memoizes crcPowOf. A device needs a few k: its frame length and
// the distances from each region band's end to the frame's.
var crcPows struct {
	sync.Mutex
	m map[int]*crcPow
}

// crcPowOf returns A^k, built once per k per process.
func crcPowOf(k int) *crcPow {
	crcPows.Lock()
	defer crcPows.Unlock()
	if p := crcPows.m[k]; p != nil {
		return p
	}
	p := new(crcPow)
	for b := range p {
		for i := range p[b] {
			x := uint16(i) << (8 * b)
			for range k {
				x = crcState[0][byte(x)] ^ crcState[1][x>>8]
			}
			p[b][i] = x
		}
	}
	if crcPows.m == nil {
		crcPows.m = make(map[int]*crcPow)
	}
	crcPows.m[k] = p
	return p
}

// crcUpdate folds one (register, data) pair into the running CRC.
func crcUpdate(crc uint16, reg Reg, data uint32) uint16 {
	return crcFold(crc, crcReg[reg&0x1F], data)
}

// crcFold is crcUpdate with the register term B(reg, 0) already looked up.
func crcFold(crc, regTerm uint16, data uint32) uint16 {
	return crcTerm(regTerm, data) ^ crcState[0][byte(crc)] ^ crcState[1][crc>>8]
}

// crcTerm is B(reg, data), the part of an update that does not depend on
// the running CRC. The folds XOR it in before the state lookups: Go keeps
// the XOR chain in source order, and with the state last only the final
// two XORs of a word wait for the previous word's CRC.
func crcTerm(regTerm uint16, data uint32) uint16 {
	return regTerm ^ crcData[0][byte(data)] ^ crcData[1][byte(data>>8)] ^
		crcData[2][byte(data>>16)] ^ crcData[3][data>>24]
}

// crcStream folds a sequence of data words written to one register, four
// words per table step and the tail one word at a time. The sixteen data
// lookups of a step are written out in the loop body: behind a call the
// compiler does not inline, the four-word step gains little.
func crcStream(crc uint16, reg Reg, words []uint32) uint16 {
	regTerm, regTerm4 := crcReg[reg&0x1F], crcReg4[reg&0x1F]
	for ; len(words) >= 4; words = words[4:] {
		w0, w1, w2, w3 := words[0], words[1], words[2], words[3]
		t := regTerm4 ^
			crcData4[0][byte(w0)] ^ crcData4[1][byte(w0>>8)] ^ crcData4[2][byte(w0>>16)] ^ crcData4[3][w0>>24] ^
			crcData4[4][byte(w1)] ^ crcData4[5][byte(w1>>8)] ^ crcData4[6][byte(w1>>16)] ^ crcData4[7][w1>>24] ^
			crcData4[8][byte(w2)] ^ crcData4[9][byte(w2>>8)] ^ crcData4[10][byte(w2>>16)] ^ crcData4[11][w2>>24] ^
			crcData4[12][byte(w3)] ^ crcData4[13][byte(w3>>8)] ^ crcData4[14][byte(w3>>16)] ^ crcData4[15][w3>>24]
		crc = t ^ crcState4[0][byte(crc)] ^ crcState4[1][crc>>8]
	}
	for _, w := range words {
		crc = crcFold(crc, regTerm, w)
	}
	return crc
}

// crcStream2 folds the same words into two running CRCs in one pass,
// computing each step's data term once: the loader's stream CRC and the
// decoder's container CRC both fold decoded FDRI frame data, word by word
// where the loader cannot fold a frame at once.
func crcStream2(a, b uint16, reg Reg, words []uint32) (uint16, uint16) {
	regTerm, regTerm4 := crcReg[reg&0x1F], crcReg4[reg&0x1F]
	for ; len(words) >= 4; words = words[4:] {
		w0, w1, w2, w3 := words[0], words[1], words[2], words[3]
		t := regTerm4 ^
			crcData4[0][byte(w0)] ^ crcData4[1][byte(w0>>8)] ^ crcData4[2][byte(w0>>16)] ^ crcData4[3][w0>>24] ^
			crcData4[4][byte(w1)] ^ crcData4[5][byte(w1>>8)] ^ crcData4[6][byte(w1>>16)] ^ crcData4[7][w1>>24] ^
			crcData4[8][byte(w2)] ^ crcData4[9][byte(w2>>8)] ^ crcData4[10][byte(w2>>16)] ^ crcData4[11][w2>>24] ^
			crcData4[12][byte(w3)] ^ crcData4[13][byte(w3>>8)] ^ crcData4[14][byte(w3>>16)] ^ crcData4[15][w3>>24]
		a = t ^ crcState4[0][byte(a)] ^ crcState4[1][a>>8]
		b = t ^ crcState4[0][byte(b)] ^ crcState4[1][b>>8]
	}
	for _, w := range words {
		t := crcTerm(regTerm, w)
		a = t ^ crcState[0][byte(a)] ^ crcState[1][a>>8]
		b = t ^ crcState[0][byte(b)] ^ crcState[1][b>>8]
	}
	return a, b
}

// FrameCRC folds one frame's words into a running CRC, exactly as the
// configuration logic would see them arriving at the FDRI register. It
// feeds the codec and the benchmark ladder; no scrubber uses it, because a
// linear CRC16 over many frames is blind to structured pairs of upsets
// that a region content hash catches.
func FrameCRC(crc uint16, words []uint32) uint16 {
	return crcStream(crc, RegFDRI, words)
}
