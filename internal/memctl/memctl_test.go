package memctl

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBigEndianLayout(t *testing.T) {
	m := NewBRAM(64)
	m.PokeBE(0, 0x11223344, 4)
	if b := m.byteAt(0); b != 0x11 {
		t.Errorf("byte 0 = %#x, want 0x11 (big-endian)", b)
	}
	if b := m.byteAt(3); b != 0x44 {
		t.Errorf("byte 3 = %#x, want 0x44", b)
	}
	if v := m.PeekBE(2, 2); v != 0x3344 {
		t.Errorf("halfword at 2 = %#x", v)
	}
	m.PokeBE(8, 0x0102030405060708, 8)
	if v := m.PeekBE(8, 8); v != 0x0102030405060708 {
		t.Errorf("doubleword = %#x", v)
	}
	if v := m.PeekBE(12, 4); v != 0x05060708 {
		t.Errorf("low word of doubleword = %#x", v)
	}
}

func TestOutOfRangeSemantics(t *testing.T) {
	m := NewBRAM(16)
	if v := m.PeekBE(16, 4); v != ^uint64(0) {
		t.Errorf("out-of-range read = %#x, want all ones", v)
	}
	m.PokeBE(14, 0xFFFF_FFFF, 4) // straddles the end: dropped
	if v := m.PeekBE(12, 4); v != 0 {
		t.Errorf("straddling write not dropped: %#x", v)
	}
	if err := m.LoadBytes(8, make([]byte, 9)); err == nil {
		t.Error("out-of-range LoadBytes accepted")
	}
	if _, err := m.ReadBytes(8, 9); err == nil {
		t.Error("out-of-range ReadBytes accepted")
	}
}

func TestSparsePaging(t *testing.T) {
	m := NewDDR() // 512 MB, should not allocate eagerly
	if len(m.pages) != 0 {
		t.Fatal("pages allocated before any write")
	}
	if v := m.PeekBE(400<<20, 4); v != 0 {
		t.Fatalf("untouched page reads %#x, want 0", v)
	}
	if len(m.pages) != 0 {
		t.Fatal("read allocated a page")
	}
	m.PokeBE(400<<20, 7, 4)
	if len(m.pages) != 1 {
		t.Fatalf("pages after one write = %d", len(m.pages))
	}
	if v := m.PeekBE(400<<20, 4); v != 7 {
		t.Fatalf("readback = %d", v)
	}
}

func TestLoadReadBytesAcrossPages(t *testing.T) {
	m := New("m", 3*pageSize, 0, 0, 0)
	data := make([]byte, pageSize+100)
	for i := range data {
		data[i] = byte(i * 7)
	}
	base := uint32(pageSize - 50)
	if err := m.LoadBytes(base, data); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadBytes(base, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page roundtrip mismatch")
	}
}

func TestWaitStates(t *testing.T) {
	sram := NewSRAM()
	if _, w := sram.Read(0, 4); w != 4 {
		t.Errorf("SRAM read waits = %d, want 4", w)
	}
	if w := sram.Write(0, 0, 4); w != 3 {
		t.Errorf("SRAM write waits = %d, want 3", w)
	}
	// OPB EMC does not burst: waits scale with beats.
	if w := sram.BurstWaits(0, 8, false); w != 32 {
		t.Errorf("SRAM burst waits = %d, want 8*4", w)
	}
	ddr := NewDDR()
	if w := ddr.BurstWaits(0, 16, false); w != 6 {
		t.Errorf("DDR burst waits = %d, want first-access 6", w)
	}
	reads, writes := sram.Stats()
	if reads != 1 || writes != 1 {
		t.Errorf("stats = %d/%d", reads, writes)
	}
}

// Property: PokeBE/PeekBE roundtrip for every size at arbitrary addresses.
func TestPeekPokeRoundTripProperty(t *testing.T) {
	m := New("m", 1<<20, 0, 0, 0)
	f := func(addr uint32, val uint64, sizeSel uint8) bool {
		sizes := []int{1, 2, 4, 8}
		size := sizes[sizeSel%4]
		addr %= 1<<20 - 8
		mask := ^uint64(0)
		if size < 8 {
			mask = 1<<(8*size) - 1
		}
		m.PokeBE(addr, val, size)
		return m.PeekBE(addr, size) == val&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The byte-wise accessors the page-wise ones replaced: one page-map lookup
// per byte. They are the reference TestPageWiseMatchesByteWise holds
// PeekBE, PokeBE, LoadBytes and ReadBytes to.

func (m *Memory) byteAt(addr uint32) byte {
	if int(addr) >= m.size {
		return 0xFF // floating bus
	}
	p := m.pages[addr>>pageBits]
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

func (m *Memory) setByte(addr uint32, v byte) {
	if int(addr) >= m.size {
		return
	}
	idx := addr >> pageBits
	p := m.pages[idx]
	if p == nil {
		p = make([]byte, pageSize)
		m.pages[idx] = p
	}
	p[addr&(pageSize-1)] = v
}

func (m *Memory) refPeekBE(addr uint32, size int) uint64 {
	if int(addr)+size > m.size {
		return ^uint64(0)
	}
	var v uint64
	for i := 0; i < size; i++ {
		v = v<<8 | uint64(m.byteAt(addr+uint32(i)))
	}
	return v
}

func (m *Memory) refPokeBE(addr uint32, val uint64, size int) {
	if int(addr)+size > m.size {
		return
	}
	for i := size - 1; i >= 0; i-- {
		m.setByte(addr+uint32(i), byte(val))
		val >>= 8
	}
}

func (m *Memory) refLoadBytes(addr uint32, data []byte) error {
	if int(addr)+len(data) > m.size {
		return fmt.Errorf("memctl: %s: load of %d bytes at %#x out of range", m.name, len(data), addr)
	}
	for i, b := range data {
		m.setByte(addr+uint32(i), b)
	}
	return nil
}

func (m *Memory) refReadBytes(addr uint32, size int) ([]byte, error) {
	if int(addr)+size > m.size {
		return nil, fmt.Errorf("memctl: %s: read of %d bytes at %#x out of range", m.name, size, addr)
	}
	out := make([]byte, size)
	for i := range out {
		out[i] = m.byteAt(addr + uint32(i))
	}
	return out, nil
}

// TestPageWiseMatchesByteWise drives two memories with one seeded sequence
// of accesses, one through the page-wise accessors (and Read/Write, which
// call them, and ReadWords, a run of word Reads) and one through the
// byte-wise reference, and requires equal
// values, errors, Stats() and pages after every access. Addresses cluster
// on both sides of each 64 KB page boundary, at the top of memory and past
// it; loads and reads run up to 200 KB, across several pages.
func TestPageWiseMatchesByteWise(t *testing.T) {
	const size = 5*pageSize + 1000 // the top page is partial
	got, want := New("m", size, 2, 3, -1), New("m", size, 2, 3, -1)
	rng := rand.New(rand.NewSource(26))
	addr := func() uint32 {
		switch rng.Intn(4) {
		case 0: // a page boundary, either side
			return uint32(rng.Intn(size/pageSize+1)*pageSize + rng.Intn(17) - 8)
		case 1: // the top of memory and past it
			return uint32(size + rng.Intn(17) - 12)
		default:
			return uint32(rng.Intn(size + 16))
		}
	}
	length := func() int {
		if rng.Intn(3) == 0 {
			return rng.Intn(17)
		}
		return rng.Intn(200 << 10)
	}
	for op := 0; op < 3000; op++ {
		a := addr() // below a boundary at 0 wraps far past memory
		width := []int{1, 2, 4, 8}[rng.Intn(4)]
		what := ""
		switch rng.Intn(7) {
		case 0:
			what = "PokeBE"
			v := rng.Uint64()
			got.PokeBE(a, v, width)
			want.refPokeBE(a, v, width)
		case 1:
			what = "Write"
			v := rng.Uint64()
			gw := got.Write(a, v, width)
			want.writes++
			want.refPokeBE(a, v, width)
			if gw != want.writeWaits {
				t.Fatalf("op %d: Write waits %d", op, gw)
			}
		case 2:
			what = "PeekBE"
			if g, w := got.PeekBE(a, width), want.refPeekBE(a, width); g != w {
				t.Fatalf("op %d: PeekBE(%#x, %d) = %#x, want %#x", op, a, width, g, w)
			}
		case 3:
			what = "Read"
			g, gw := got.Read(a, width)
			want.reads++
			if w := want.refPeekBE(a, width); g != w || gw != want.readWaits {
				t.Fatalf("op %d: Read(%#x, %d) = %#x/%d, want %#x/%d", op, a, width, g, gw, w, want.readWaits)
			}
		case 4:
			what = "LoadBytes"
			data := make([]byte, length())
			rng.Read(data)
			ge, we := got.LoadBytes(a, data), want.refLoadBytes(a, data)
			if fmt.Sprint(ge) != fmt.Sprint(we) {
				t.Fatalf("op %d: LoadBytes(%#x, %d bytes) error %v, want %v", op, a, len(data), ge, we)
			}
		case 5:
			what = "ReadBytes"
			n := length()
			g, ge := got.ReadBytes(a, n)
			w, we := want.refReadBytes(a, n)
			if fmt.Sprint(ge) != fmt.Sprint(we) || !bytes.Equal(g, w) || (g == nil) != (w == nil) {
				t.Fatalf("op %d: ReadBytes(%#x, %d) differs (errors %v, %v)", op, a, n, ge, we)
			}
		case 6:
			what = "ReadWords"
			ws := make([]uint32, length()/4)
			got.ReadWords(a, ws)
			want.reads += uint64(len(ws))
			for i, g := range ws {
				if w := uint32(want.refPeekBE(a+uint32(4*i), 4)); g != w {
					t.Fatalf("op %d: ReadWords(%#x) word %d = %#x, want %#x", op, a, i, g, w)
				}
			}
		}
		gr, gw := got.Stats()
		wr, ww := want.Stats()
		if gr != wr || gw != ww {
			t.Fatalf("op %d (%s): Stats %d/%d, want %d/%d", op, what, gr, gw, wr, ww)
		}
		if len(got.pages) != len(want.pages) {
			t.Fatalf("op %d (%s at %#x): %d pages, want %d", op, what, a, len(got.pages), len(want.pages))
		}
	}
	for idx, w := range want.pages {
		if !bytes.Equal(got.pages[idx], w) {
			t.Fatalf("page %d differs", idx)
		}
	}
}
