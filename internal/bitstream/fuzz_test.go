package bitstream

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fabric"
)

// diffStream builds a sparse multi-run stream of the shape the
// differential assembler emits: disjoint frame runs, each with its own
// WCFG/FAR/FDRI sequence, sharing one CRC check.
func diffStream(tb testing.TB) (*fabric.Device, *Stream) {
	tb.Helper()
	dev := fabric.XC2VP7()
	flen := dev.FrameLen()
	mk := func(seed uint32) []uint32 {
		f := make([]uint32, flen)
		for i := range f {
			x := seed + uint32(i)*2654435761
			x ^= x >> 13
			f[i] = x * 2246822519
		}
		return f
	}
	runs := []FrameRun{
		{Start: fabric.FAR{Block: fabric.BlockCLB, Major: 4, Minor: 0}, Frames: [][]uint32{mk(1), mk(2)}},
		{Start: fabric.FAR{Block: fabric.BlockCLB, Major: 7, Minor: 3}, Frames: [][]uint32{mk(3)}},
	}
	s, err := Build(dev, runs)
	if err != nil {
		tb.Fatal(err)
	}
	return dev, s
}

func encodeWords(words []uint32) []byte {
	out := make([]byte, 4*len(words))
	for i, w := range words {
		binary.BigEndian.PutUint32(out[4*i:], w)
	}
	return out
}

// feed streams bytes word-by-word into a fresh loader, stopping at the
// first error the way the HWICAP does.
func feed(dev *fabric.Device, data []byte) *Loader {
	l := NewLoader(fabric.NewConfigMemory(dev))
	for i := 0; i+4 <= len(data); i += 4 {
		if l.WriteWord(binary.BigEndian.Uint32(data[i:])) != nil {
			break
		}
	}
	return l
}

// FuzzLoaderDifferentialStream feeds arbitrary byte mutations of a
// differential-shaped stream into the loader state machine. Whatever the
// input, the loader must never panic, must keep its first error sticky,
// and must still load a pristine stream after a reset — a damaged stream
// can wedge neither the state machine nor the device model.
func FuzzLoaderDifferentialStream(f *testing.F) {
	dev, s := diffStream(f)
	enc := encodeWords(s.Words)
	f.Add(enc)
	f.Add(enc[:len(enc)/2]) // truncated mid-FDRI
	f.Add(enc[:4*3])        // truncated right after sync
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)/3] ^= 0x40 // bit flip inside frame data
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		l := feed(dev, data)
		if err := l.Err(); err != nil {
			// The first error must be sticky: the loader refuses further
			// words instead of resynchronizing on garbage.
			if l.WriteWord(SyncWord) == nil {
				t.Fatal("loader accepted words after a configuration error")
			}
		}
		// A reset must always recover the state machine for a clean load.
		l.Reset()
		if err := l.Err(); err != nil {
			t.Fatalf("error survived reset: %v", err)
		}
		if err := l.Load(s); err != nil {
			t.Fatalf("pristine stream rejected after fuzzed input: %v", err)
		}
		if !l.Done() {
			t.Fatal("pristine stream did not complete after reset")
		}
	})
}

// FuzzCompressedStream feeds arbitrary byte mutations of a compressed
// container into the decoder. Whatever the input: no panic, the first
// decode error is sticky, and a decode that completes with every check
// green (container CRC, decoder done, loader done and error-free) must
// have reproduced the original stream words exactly — silent decode
// divergence is the failure mode that must not exist; damage is only
// ever rejected loudly, by the container CRC or the stream's own. A
// pristine container must still decode cleanly afterwards. On every path
// a container takes, the decoder must leave exactly the state its
// word-by-word reference leaves (DecodeOracle.Check).
func FuzzCompressedStream(f *testing.F) {
	dev, s, assumed, frames, _ := compressFixture(f, 31)
	c, err := Compress(dev, s, assumed, len(frames))
	if err != nil {
		f.Fatal(err)
	}
	enc := encodeWords(c.Words)
	f.Add(enc)
	f.Add(enc[:len(enc)/2]) // truncated mid-container
	f.Add(enc[:4*2])        // truncated inside the header
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)/3] ^= 0x04 // bit flip inside an op payload
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]uint32, len(data)/4)
		for i := range words {
			words[i] = binary.BigEndian.Uint32(data[4*i:])
		}
		// The oracle decodes each container six times, so it takes only
		// those declaring at most 1<<16 raw words: the count and overrun
		// checks are the same code at any size, and a header near the
		// 2^28 limit lets each decode expand up to a gibibyte.
		if len(words) < 2 || words[1] <= 1<<16 {
			NewDecodeOracle(assumed).Check(t, "fuzzed container", words)
		}
		d := NewDecoder(NewLoader(assumed.Clone()))
		for _, w := range words {
			if _, err := d.WriteWord(w); err != nil {
				break
			}
		}
		if d.Err() != nil {
			// The first error must be sticky: the decoder refuses further
			// container words instead of resynchronizing on garbage.
			if _, err := d.WriteWord(CompressedMagic); err == nil {
				t.Fatal("decoder accepted words after a decode error")
			}
		}
		if d.Done() && d.l.Done() && d.l.Err() == nil {
			if !wordsEqual(d.out, s.Words) {
				t.Fatalf("silent divergent decode: %d words out, %d in original", len(d.out), len(s.Words))
			}
		}
		// A fresh decoder must still take the pristine container in full.
		d2 := NewDecoder(NewLoader(assumed.Clone()))
		for _, w := range c.Words {
			if _, err := d2.WriteWord(w); err != nil {
				t.Fatalf("pristine container rejected after fuzzed input: %v", err)
			}
		}
		if !d2.Done() || !d2.l.Done() {
			t.Fatal("pristine container did not complete after fuzzed input")
		}
	})
}

// TestTruncatedDifferentialNeverCompletes cuts the stream at every word
// boundary up to the DESYNC command: no truncation may be reported as a
// completed configuration, and none may panic.
func TestTruncatedDifferentialNeverCompletes(t *testing.T) {
	dev, s := diffStream(t)
	// Locate the DESYNC command value (the word that flags completion).
	desync := -1
	for i := 1; i < len(s.Words); i++ {
		if s.Words[i-1] == type1Header(opWrite, RegCMD, 1) && s.Words[i] == uint32(CmdDesync) {
			desync = i
		}
	}
	if desync < 0 {
		t.Fatal("no DESYNC in stream")
	}
	enc := encodeWords(s.Words)
	for cut := 0; cut <= desync; cut++ {
		l := feed(dev, enc[:4*cut])
		if l.Done() {
			t.Fatalf("stream truncated at word %d/%d reported a completed configuration", cut, len(s.Words))
		}
	}
}

// TestBitFlippedDifferentialFailsCRC flips one bit in the frame data ahead
// of the CRC check: the loader must reject the stream with a CRC error and
// count it, not silently accept a damaged configuration.
func TestBitFlippedDifferentialFailsCRC(t *testing.T) {
	dev, s := diffStream(t)
	crcHdr := type1Header(opWrite, RegCRC, 1)
	crcIdx := -1
	for i, w := range s.Words {
		if w == crcHdr {
			crcIdx = i
		}
	}
	if crcIdx < 2 {
		t.Fatal("no CRC header in stream")
	}
	words := append([]uint32(nil), s.Words...)
	// The CRC header is preceded by [CMD hdr, LFRM]; the word before those
	// is the last pad-frame word of the final FDRI packet — CRC-covered
	// frame data.
	words[crcIdx-3] ^= 1 << 9
	l := feed(dev, encodeWords(words))
	if l.Err() == nil {
		t.Fatal("bit-flipped stream accepted")
	}
	if _, _, crcErrs := l.Stats(); crcErrs != 1 {
		t.Fatalf("crc errors = %d, want 1", crcErrs)
	}
	if l.Done() {
		t.Fatal("bit-flipped stream reported completion")
	}
}

// FuzzFrameFold drives two FDRI packets of frames through a guarded
// loader that folds each frame's data into its CRC, and a container CRC,
// as the frame commits. The fuzzer picks the packet's first frame (it may
// run past the device's last), its length, two regions whose bands are
// the owned ranges, both starting CRCs, the frame of the second packet
// whose static word differs from the memory's, tripping the guard (or
// none), and the word of the second packet where a flush folds the
// pending words. Both CRCs must equal crcStream over the packet's words,
// and the error, frames written, Stats, guard verdict and frames must be
// those of a loader that folds every word as it arrives.
func FuzzFrameFold(f *testing.F) {
	f.Add(uint16(100), uint8(3), uint32(0x04050A1E), uint16(0x1234), uint16(0xBEEF), uint8(255), uint16(500), uint64(1))
	f.Add(uint16(22*30+20), uint8(6), uint32(0x01280203), uint16(0), uint16(0), uint8(2), uint16(0), uint64(7))
	f.Add(uint16(9999), uint8(7), uint32(0), uint16(1), uint16(2), uint8(0), uint16(9999), uint64(3))
	f.Fuzz(func(t *testing.T, first uint16, frames uint8, bands uint32, crc0, also0 uint16, trip uint8, flushAt uint16, seed uint64) {
		dev := fabric.XC2VP7()
		flen, n := dev.FrameLen(), 1+int(frames%8)
		start := int(first) % dev.NumFrames()
		var regions []fabric.Region
		for k := 0; k < 2; k++ {
			row0 := int(byte(bands>>(16*k))) % dev.Rows
			h := 1 + int(byte(bands>>(16*k+8)))%(dev.Rows-row0)
			regions = append(regions, fabric.Region{Name: "r", Col0: 2 + k, W: dev.Cols - 4, Row0: row0, H: h})
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		cm := fabric.NewConfigMemory(dev)
		for i := range dev.NumFrames() {
			far, _ := dev.FARAt(i)
			frame := make([]uint32, flen)
			for j := range frame {
				frame[j] = rng.Uint32()
			}
			if err := cm.WriteFrame(far, frame); err != nil {
				t.Fatal(err)
			}
		}
		cm.Guard(regions...)
		ref := cm.Clone()
		ref.Guard(regions...)
		l, rl := NewLoader(cm), NewLoader(ref)
		setup := func(l *Loader, pass int) {
			farWord, _ := dev.FARAt(start)
			if pass == 0 {
				_ = l.WriteWord(SyncWord)
			}
			for _, w := range []uint32{
				type1Header(opWrite, RegFLR, 1), uint32(flen),
				type1Header(opWrite, RegCMD, 1), uint32(CmdWCFG),
				type1Header(opWrite, RegFAR, 1), farWord.Word(),
				type1Header(opWrite, RegFDRI, 0), type2Header(opWrite, (n+1)*flen)} {
				if err := l.WriteWord(w); err != nil {
					t.Fatal(err)
				}
			}
			l.crc = crc0
		}
		for pass := 0; pass < 2; pass++ {
			// The frames' current content with their band words redrawn,
			// and on the second pass one static word changed, then the
			// pad frame.
			var data []uint32
			for k := 0; k <= n; k++ {
				frame := make([]uint32, flen)
				if i := start + k; k < n && i < dev.NumFrames() {
					far, _ := dev.FARAt(i)
					frame, _ = cm.ReadFrame(far)
					for _, r := range cm.Owned(i) {
						for j := r.Lo; j < r.Hi; j++ {
							frame[j] = rng.Uint32()
						}
					}
					if pass == 1 && k == int(trip) {
						frame[0] ^= 1 << (seed % 32)
					}
				}
				data = append(data, frame...)
			}
			setup(l, pass)
			setup(rl, pass)
			also, refAlso := also0, also0
			cut := int(flushAt) % (len(data) + 1)
			if pass == 0 {
				cut = 0
			}
			if _, err := l.write(data[:cut], &also); err == nil {
				l.flush()
				_, _ = l.write(data[cut:], &also)
			}
			for _, w := range data {
				refAlso = crcUpdate(refAlso, RegFDRI, w)
				_ = rl.WriteWord(w)
				rl.flush()
			}
			l.flush()
			if want := crcStream(crc0, RegFDRI, data); l.crc != want || rl.crc != want {
				t.Fatalf("pass %d: CRC %#04x, per-word %#04x, crcStream %#04x", pass, l.crc, rl.crc, want)
			}
			if want := crcStream(also0, RegFDRI, data); also != want || refAlso != want {
				t.Fatalf("pass %d: container CRC %#04x, per-word %#04x, crcStream %#04x", pass, also, refAlso, want)
			}
			if a, b := fmt.Sprint(l.Err()), fmt.Sprint(rl.Err()); a != b {
				t.Fatalf("pass %d: error %s, per-word %s", pass, a, b)
			}
			f1, c1, e1 := l.Stats()
			f2, c2, e2 := rl.Stats()
			if [3]uint64{f1, c1, e1} != [3]uint64{f2, c2, e2} || cm.Disturbed() != ref.Disturbed() {
				t.Fatalf("pass %d: stats %v disturbed %v, per-word %v %v", pass,
					[3]uint64{f1, c1, e1}, cm.Disturbed(), [3]uint64{f2, c2, e2}, ref.Disturbed())
			}
			for i := range dev.NumFrames() {
				far, _ := dev.FARAt(i)
				a, _ := cm.ReadFrame(far)
				b, _ := ref.ReadFrame(far)
				if !slices.Equal(a, b) {
					t.Fatalf("pass %d: frame %v differs from the per-word load's", pass, far)
				}
			}
			if l.Err() != nil {
				return
			}
		}
	})
}
