package bitstream

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
)

func randFrame(rng *rand.Rand, flen int) []uint32 {
	f := make([]uint32, flen)
	for i := range f {
		f[i] = rng.Uint32()
	}
	return f
}

func TestBuildLoadRoundTrip(t *testing.T) {
	dev := fabric.XC2VP7()
	rng := rand.New(rand.NewSource(1))
	flen := dev.FrameLen()
	runs := []FrameRun{
		{Start: fabric.FAR{Block: fabric.BlockCLB, Major: 3, Minor: 5},
			Frames: [][]uint32{randFrame(rng, flen), randFrame(rng, flen), randFrame(rng, flen)}},
		{Start: fabric.FAR{Block: fabric.BlockBRAM, Major: 1, Minor: 0},
			Frames: [][]uint32{randFrame(rng, flen)}},
	}
	s, err := Build(dev, runs)
	if err != nil {
		t.Fatal(err)
	}
	cm := fabric.NewConfigMemory(dev)
	l := NewLoader(cm)
	doneCalls := 0
	l.OnDone(func() { doneCalls++ })
	if err := l.Load(s); err != nil {
		t.Fatal(err)
	}
	if !l.Done() {
		t.Fatal("loader not done after full stream")
	}
	if doneCalls != 1 {
		t.Fatalf("OnDone fired %d times, want 1", doneCalls)
	}
	// Every frame must be present at its auto-incremented address.
	for _, run := range runs {
		far := run.Start
		for i, want := range run.Frames {
			got, err := cm.ReadFrame(far)
			if err != nil {
				t.Fatal(err)
			}
			for w := range want {
				if got[w] != want[w] {
					t.Fatalf("run@%v frame %d word %d: got %#x want %#x", run.Start, i, w, got[w], want[w])
				}
			}
			far, _ = dev.NextFAR(far)
		}
	}
	frames, configs, crcErrs := l.Stats()
	if frames != 4 || configs != 1 || crcErrs != 0 {
		t.Fatalf("stats: frames=%d configs=%d crcErrs=%d", frames, configs, crcErrs)
	}
}

func TestCRCMismatchRejected(t *testing.T) {
	dev := fabric.XC2VP7()
	rng := rand.New(rand.NewSource(2))
	runs := []FrameRun{{Start: fabric.FAR{}, Frames: [][]uint32{randFrame(rng, dev.FrameLen())}}}
	s, err := BuildCorrupt(dev, runs)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(fabric.NewConfigMemory(dev))
	err = l.Load(s)
	if err == nil {
		t.Fatal("corrupt CRC accepted")
	}
	if l.Done() {
		t.Fatal("loader reports done despite CRC error")
	}
	if _, _, crcErrs := l.Stats(); crcErrs != 1 {
		t.Fatalf("crcErrs = %d, want 1", crcErrs)
	}
	// Error is sticky until reset.
	if err := l.WriteWord(DummyWord); err == nil {
		t.Fatal("sticky error not reported")
	}
	l.Reset()
	if l.Err() != nil {
		t.Fatal("Reset did not clear error")
	}
}

func TestFlippedFrameBitFailsCRC(t *testing.T) {
	dev := fabric.XC2VP7()
	rng := rand.New(rand.NewSource(3))
	runs := []FrameRun{{Start: fabric.FAR{}, Frames: [][]uint32{randFrame(rng, dev.FrameLen())}}}
	s, err := Build(dev, runs)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit somewhere inside the FDRI payload.
	idx := len(s.Words) / 2
	s.Words[idx] ^= 1 << 7
	l := NewLoader(fabric.NewConfigMemory(dev))
	if err := l.Load(s); err == nil {
		t.Fatal("bit-flipped stream accepted")
	}
}

func TestPreSyncWordsIgnored(t *testing.T) {
	dev := fabric.XC2VP7()
	l := NewLoader(fabric.NewConfigMemory(dev))
	for i := 0; i < 16; i++ {
		if err := l.WriteWord(0x12345678); err != nil {
			t.Fatal(err)
		}
	}
	if l.Err() != nil {
		t.Fatal("pre-sync garbage raised an error")
	}
}

func TestWrongIDCODERejected(t *testing.T) {
	v7, v30 := fabric.XC2VP7(), fabric.XC2VP30()
	rng := rand.New(rand.NewSource(4))
	// Stream built for the XC2VP7 fed into an XC2VP30 (frame lengths and
	// IDCODE both differ; IDCODE is checked first).
	runs := []FrameRun{{Start: fabric.FAR{}, Frames: [][]uint32{randFrame(rng, v7.FrameLen())}}}
	s, err := Build(v7, runs)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(fabric.NewConfigMemory(v30))
	if err := l.Load(s); err == nil {
		t.Fatal("stream for wrong device accepted")
	}
}

func TestFDRIWithoutWCFGRejected(t *testing.T) {
	dev := fabric.XC2VP7()
	flen := dev.FrameLen()
	var words []uint32
	words = append(words, SyncWord)
	words = append(words, type1Header(opWrite, RegFLR, 1), uint32(flen))
	words = append(words, type1Header(opWrite, RegFAR, 1), fabric.FAR{}.Word())
	words = append(words, type1Header(opWrite, RegFDRI, 0), type2Header(opWrite, 2*flen))
	words = append(words, make([]uint32, 2*flen)...)
	l := NewLoader(fabric.NewConfigMemory(dev))
	var err error
	for _, w := range words {
		if err = l.WriteWord(w); err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("FDRI without WCFG accepted")
	}
}

func TestRunPastLastFrameRejected(t *testing.T) {
	dev := fabric.XC2VP7()
	rng := rand.New(rand.NewSource(5))
	flen := dev.FrameLen()
	last := fabric.FAR{Block: fabric.BlockBRAM, Major: len(dev.BRAMColPos) - 1, Minor: fabric.FramesPerBRAMColumn - 1}
	runs := []FrameRun{{Start: last, Frames: [][]uint32{randFrame(rng, flen), randFrame(rng, flen)}}}
	if _, err := Build(dev, runs); err == nil {
		t.Fatal("builder accepted run past last frame")
	}
}

func TestBuilderRejectsBadFrames(t *testing.T) {
	dev := fabric.XC2VP7()
	if _, err := Build(dev, []FrameRun{{Start: fabric.FAR{}, Frames: [][]uint32{make([]uint32, 7)}}}); err == nil {
		t.Fatal("wrong frame length accepted")
	}
	if _, err := Build(dev, []FrameRun{{Start: fabric.FAR{}}}); err == nil {
		t.Fatal("empty run accepted")
	}
	bad := fabric.FAR{Block: fabric.BlockCLB, Major: 9999, Minor: 0}
	if _, err := Build(dev, []FrameRun{{Start: bad, Frames: [][]uint32{make([]uint32, dev.FrameLen())}}}); err == nil {
		t.Fatal("bad start address accepted")
	}
}

func TestLoaderReusableAcrossConfigs(t *testing.T) {
	dev := fabric.XC2VP7()
	rng := rand.New(rand.NewSource(6))
	cm := fabric.NewConfigMemory(dev)
	l := NewLoader(cm)
	for i := 0; i < 3; i++ {
		runs := []FrameRun{{Start: fabric.FAR{Block: fabric.BlockCLB, Major: i, Minor: 0},
			Frames: [][]uint32{randFrame(rng, dev.FrameLen())}}}
		s, err := Build(dev, runs)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Load(s); err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if !l.Done() {
			t.Fatalf("config %d: not done", i)
		}
	}
	if _, configs, _ := l.Stats(); configs != 3 {
		t.Fatalf("configs = %d, want 3", configs)
	}
}

// Property: the running CRC folds the register address in, and the order
// of two data words matters exactly when linear algebra says it does.
//
// The register half always holds: c1 ⊕ c2 is the nonzero constant
// crcReg[FDRI] ⊕ crcReg[FAR]. The order half cannot be "two different
// words always give different CRCs in either order" — no linear CRC16 of
// 32-bit words guarantees that. With crc' = A(crc) ⊕ B(reg) ⊕ D(data)
// (crc.go), folding a then b differs from folding b then a by
// A(D(d)) ⊕ D(d) for d = a ⊕ b, so the orders collide exactly when
// A(D(d)) = D(d). The test checks that statement against crcSerial on a
// fixed-seed sample and on a known colliding pair.
func TestCRCProperties(t *testing.T) {
	register := func(a uint32) bool {
		return crcUpdate(0, RegFDRI, a) != crcUpdate(0, RegFAR, a)
	}
	if err := quick.Check(register, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}

	A := func(x uint16) uint16 { return crcSerial(x, 0, 0) }
	D := func(d uint32) uint16 { return crcSerial(0, 0, d) }
	collides := func(a, b uint32) bool {
		o1 := crcUpdate(crcUpdate(0, RegFDRI, a), RegFDRI, b)
		o2 := crcUpdate(crcUpdate(0, RegFDRI, b), RegFDRI, a)
		predicted := A(D(a^b)) == D(a^b)
		if (o1 == o2) != predicted {
			t.Fatalf("(%#08x, %#08x): orders give %#04x and %#04x, but A(D(d)) = D(d) is %v",
				a, b, o1, o2, predicted)
		}
		return o1 == o2
	}
	const a0, b0 = 0xcdf0318d, 0x5a4b5297
	if !collides(a0, b0) {
		t.Fatalf("(%#08x, %#08x) must give the same CRC in both orders", a0, b0)
	}
	// Random pairs almost always differ; pairs at the known difference
	// a0 ⊕ b0 always collide.
	rng := rand.New(rand.NewSource(1))
	differ := 0
	for i := 0; i < 4096; i++ {
		a, b := rng.Uint32(), rng.Uint32()
		if a != b && !collides(a, b) {
			differ++
		}
		if !collides(a, a^a0^b0) {
			t.Fatalf("(%#08x, %#08x) differs by a0 ⊕ b0 but its orders differ", a, a^a0^b0)
		}
	}
	if differ == 0 {
		t.Fatal("no sampled pair distinguishes the two orders")
	}
}

// Property: build→load roundtrip applies exactly the frames described, for
// random single runs.
func TestBuildLoadProperty(t *testing.T) {
	dev := fabric.XC2VP7()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		col := rng.Intn(dev.Cols)
		minor := rng.Intn(fabric.FramesPerCLBColumn - 3)
		n := 1 + rng.Intn(3)
		frames := make([][]uint32, n)
		for i := range frames {
			frames[i] = randFrame(rng, dev.FrameLen())
		}
		start := fabric.FAR{Block: fabric.BlockCLB, Major: col, Minor: minor}
		s, err := Build(dev, []FrameRun{{Start: start, Frames: frames}})
		if err != nil {
			return false
		}
		cm := fabric.NewConfigMemory(dev)
		if err := NewLoader(cm).Load(s); err != nil {
			return false
		}
		far := start
		for _, want := range frames {
			got, err := cm.ReadFrame(far)
			if err != nil {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
			far, _ = dev.NextFAR(far)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The table form of the CRC update equals the bit-serial definition: from
// every one of the 65536 states, for every register address 0-31 with a
// random data word, plus random (register, data) pairs and the all-ones
// word. The four-word step's tables equal four bit-serial steps: A⁴ from
// every state with zero data, the data term of every byte value at every
// byte position of every word slot from the zero state, and every
// register's term with zero data.
func TestCRCTableMatchesSerial(t *testing.T) {
	serial4 := func(crc uint16, reg Reg, words [4]uint32) uint16 {
		for _, w := range words {
			crc = crcSerial(crc, reg, w)
		}
		return crc
	}
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < 1<<16; s++ {
		crc := uint16(s)
		check := func(reg Reg, data uint32) {
			if got, want := crcUpdate(crc, reg, data), crcSerial(crc, reg, data); got != want {
				t.Fatalf("crcUpdate(%#04x, %d, %#08x) = %#04x, bit-serial %#04x", crc, reg, data, got, want)
			}
		}
		check(Reg(s%32), rng.Uint32())
		check(Reg(rng.Intn(32)), rng.Uint32())
		check(Reg(rng.Intn(32)), rng.Uint32())
		check(Reg(s%32), 0xFFFFFFFF)
		if got, want := crcState4[0][byte(crc)]^crcState4[1][crc>>8], serial4(crc, 0, [4]uint32{}); got != want {
			t.Fatalf("A⁴ tables map %#04x to %#04x, four bit-serial steps to %#04x", crc, got, want)
		}
	}
	for b := 0; b < 256; b++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 4; k++ {
				var words [4]uint32
				words[j] = uint32(b) << (8 * k)
				if got, want := crcData4[4*j+k][b], serial4(0, 0, words); got != want {
					t.Fatalf("data table of word %d byte %d at %#02x = %#04x, four bit-serial steps %#04x", j, k, b, got, want)
				}
			}
		}
	}
	for r := 0; r < 32; r++ {
		if got, want := crcReg4[r], serial4(0, Reg(r), [4]uint32{}); got != want {
			t.Fatalf("register term of %d over four words = %#04x, four bit-serial steps %#04x", r, got, want)
		}
	}
}

// Folding a stream through crcStream, crcStream2 (into both of its CRCs)
// and FrameCRC gives the same CRC as folding it word by word through the
// bit-serial definition: at every length 0-11, so every tail after the
// four-word steps, at one frame of each device, and at random lengths.
func TestCRCStreamMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lengths := []int{fabric.XC2VP7().FrameLen(), fabric.XC2VP30().FrameLen()}
	for n := 0; n < 12; n++ {
		lengths = append(lengths, n)
	}
	for n := 0; n < 200; n++ {
		lengths = append(lengths, rng.Intn(300))
	}
	for _, n := range lengths {
		words := randFrame(rng, n)
		reg := Reg(rng.Intn(32))
		start, other := uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16))
		want, wantOther, wantFDRI := start, other, start
		for _, w := range words {
			want = crcSerial(want, reg, w)
			wantOther = crcSerial(wantOther, reg, w)
			wantFDRI = crcSerial(wantFDRI, RegFDRI, w)
		}
		if got := crcStream(start, reg, words); got != want {
			t.Fatalf("crcStream over %d words to reg %d = %#04x, bit-serial %#04x", len(words), reg, got, want)
		}
		if got, gotOther := crcStream2(start, other, reg, words); got != want || gotOther != wantOther {
			t.Fatalf("crcStream2 over %d words to reg %d = %#04x, %#04x, bit-serial %#04x, %#04x",
				len(words), reg, got, gotOther, want, wantOther)
		}
		if got := FrameCRC(start, words); got != wantFDRI {
			t.Fatalf("FrameCRC over %d words = %#04x, bit-serial %#04x", len(words), got, wantFDRI)
		}
	}
}

// BenchmarkFrameCRC folds one XC2VP30 frame per iteration, the words the
// loader folds for each FDRI frame write, and reports the cost per word.
func BenchmarkFrameCRC(b *testing.B) {
	frame := randFrame(rand.New(rand.NewSource(1)), fabric.XC2VP30().FrameLen())
	b.ReportAllocs()
	b.ResetTimer()
	var crc uint16
	for i := 0; i < b.N; i++ {
		crc = FrameCRC(crc, frame)
	}
	b.StopTimer()
	crcSink = crc
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(frame)), "ns/word")
}

var crcSink uint16
