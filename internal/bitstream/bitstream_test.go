package bitstream

import (
	"bytes"
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

func TestStreamBytesRoundTrip(t *testing.T) {
	f := func(words []uint32) bool {
		s := &Stream{Device: "XC2VP7", Words: words}
		back, err := FromBytes("XC2VP7", s.Bytes())
		if err != nil {
			return false
		}
		if len(back.Words) != len(words) {
			return false
		}
		for i := range words {
			if back.Words[i] != words[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := FromBytes("X", []byte{1, 2, 3}); err == nil {
		t.Fatal("unaligned byte stream accepted")
	}
}

func TestContainerRoundTrip(t *testing.T) {
	s := &Stream{Device: "XC2VP30", Words: []uint32{1, 2, 3, SyncWord}}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Stream
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.Device != s.Device || len(back.Words) != len(s.Words) {
		t.Fatalf("roundtrip mismatch: %+v", back)
	}
	for i := range s.Words {
		if back.Words[i] != s.Words[i] {
			t.Fatal("word mismatch")
		}
	}
	if err := back.UnmarshalBinary([]byte("nope")); err == nil {
		t.Fatal("bad magic accepted")
	}
	blob2 := bytes.Clone(blob)
	blob2 = blob2[:len(blob2)-1]
	if err := back.UnmarshalBinary(blob2); err == nil {
		t.Fatal("truncated container accepted")
	}
}

// Property: the running CRC distinguishes different register targets for the
// same data, and is order-sensitive.
func TestCRCProperties(t *testing.T) {
	f := func(a, b uint32) bool {
		if a == b {
			return true
		}
		c1 := crcUpdate(0, RegFDRI, a)
		c2 := crcUpdate(0, RegFAR, a)
		if c1 == c2 {
			return false // register address must be folded in
		}
		o1 := crcUpdate(crcUpdate(0, RegFDRI, a), RegFDRI, b)
		o2 := crcUpdate(crcUpdate(0, RegFDRI, b), RegFDRI, a)
		return o1 != o2 || a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
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
// word.
func TestCRCTableMatchesSerial(t *testing.T) {
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
	}
}

// Folding a stream through crcStream and FrameCRC gives the same CRC as
// folding it word by word through the bit-serial definition.
func TestCRCStreamMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 200; n++ {
		words := randFrame(rng, rng.Intn(300))
		reg := Reg(rng.Intn(32))
		start := uint16(rng.Intn(1 << 16))
		want, wantFDRI := start, start
		for _, w := range words {
			want = crcSerial(want, reg, w)
			wantFDRI = crcSerial(wantFDRI, RegFDRI, w)
		}
		if got := crcStream(start, reg, words); got != want {
			t.Fatalf("crcStream over %d words to reg %d = %#04x, bit-serial %#04x", len(words), reg, got, want)
		}
		if got := FrameCRC(start, words); got != wantFDRI {
			t.Fatalf("FrameCRC over %d words = %#04x, bit-serial %#04x", len(words), got, wantFDRI)
		}
	}
}

// BenchmarkFrameCRC folds one XC2VP30 frame per iteration, the readback
// scrubber's unit of work, and reports the cost per word.
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
