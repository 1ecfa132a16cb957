package bitstream

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
var (
	crcState [2][256]uint16
	crcData  [4][256]uint16
	crcReg   [32]uint16
)

func init() {
	for i := 0; i < 256; i++ {
		for k := range crcState {
			crcState[k][i] = crcSerial(uint16(i)<<(8*k), 0, 0)
		}
		for k := range crcData {
			crcData[k][i] = crcSerial(0, 0, uint32(i)<<(8*k))
		}
	}
	for r := range crcReg {
		crcReg[r] = crcSerial(0, Reg(r), 0)
	}
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

// crcStream folds a sequence of data words written to one register.
func crcStream(crc uint16, reg Reg, words []uint32) uint16 {
	regTerm := crcReg[reg&0x1F]
	for _, w := range words {
		crc = crcFold(crc, regTerm, w)
	}
	return crc
}

// crcStream2 folds the same words into two running CRCs in one pass,
// computing each word's data term once: the loader's stream CRC and the
// decoder's container CRC both fold decoded FDRI frame data.
func crcStream2(a, b uint16, reg Reg, words []uint32) (uint16, uint16) {
	regTerm := crcReg[reg&0x1F]
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
