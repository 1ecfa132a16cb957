package tasks

import (
	"crypto/sha1"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/ref"
	"repro/internal/sim"
)

func sys32(t *testing.T) *platform.System {
	t.Helper()
	s, err := platform.NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sys64(t *testing.T) *platform.System {
	t.Helper()
	s, err := platform.NewSys64()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func load(t *testing.T, s *platform.System, mod string) {
	t.Helper()
	if _, err := s.LoadModuleOn(0, mod, nil); err != nil {
		t.Fatal(err)
	}
}

func randImage(rng *rand.Rand, w, h int) *ref.BinaryImage {
	im := ref.NewBinaryImage(w, h)
	for i := range im.Words {
		im.Words[i] = rng.Uint32()
	}
	return im
}

func patternSetup(t *testing.T, s *platform.System, rng *rand.Rand, w, h int) (PatternArgs, *ref.BinaryImage) {
	t.Helper()
	im := randImage(rng, w, h)
	var p ref.Pattern8
	for j := range p {
		p[j] = byte(rng.Uint32())
	}
	a := PatternArgs{
		ImgAddr:   s.MemBase() + 0x10000,
		W:         w,
		H:         h,
		Pattern:   p,
		Threshold: 56,
		LUTAddr:   s.MemBase() + 0x8000,
	}
	if err := LoadPatternImage(s, a.ImgAddr, im); err != nil {
		t.Fatal(err)
	}
	if err := LoadPopcountLUT(s, a.LUTAddr); err != nil {
		t.Fatal(err)
	}
	return a, im
}

func TestPatternMatchSWHWAgreeWithReference(t *testing.T) {
	for _, mk := range []func(*testing.T) *platform.System{sys32, sys64} {
		s := mk(t)
		rng := rand.New(rand.NewSource(21))
		a, im := patternSetup(t, s, rng, 64, 24)
		wx, wy, wc, wh := ref.BestMatch(im, a.Pattern, a.Threshold)

		swRes := PatternMatchSW(s, a)
		if swRes.BestX != wx || swRes.BestY != wy || swRes.BestCount != wc || swRes.Hits != wh {
			t.Fatalf("%s SW = %+v, ref = (%d,%d,%d,%d)", s.Name, swRes, wx, wy, wc, wh)
		}
		load(t, s, "patternmatch")
		hwRes, err := PatternMatchHW(s, a)
		if err != nil {
			t.Fatal(err)
		}
		if hwRes != swRes {
			t.Fatalf("%s HW = %+v, SW = %+v", s.Name, hwRes, swRes)
		}
	}
}

func TestPatternMatchSpeedup32(t *testing.T) {
	s := sys32(t)
	rng := rand.New(rand.NewSource(22))
	a, _ := patternSetup(t, s, rng, 96, 32)
	swTime := s.Measure(func() { PatternMatchSW(s, a) })
	load(t, s, "patternmatch")
	var err error
	hwTime := s.Measure(func() { _, err = PatternMatchHW(s, a) })
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(swTime) / float64(hwTime)
	// "speedup factors of more than 26 were obtained" (§3.2)
	if speedup < 26 {
		t.Errorf("32-bit pattern matching speedup = %.1f, paper reports > 26", speedup)
	}
	t.Logf("sys32 pattern matching: sw=%v hw=%v speedup=%.1f", swTime, hwTime, speedup)
}

func TestJenkinsSWHWAgreeWithReference(t *testing.T) {
	for _, mk := range []func(*testing.T) *platform.System{sys32, sys64} {
		s := mk(t)
		rng := rand.New(rand.NewSource(23))
		for _, n := range []int{0, 1, 11, 12, 13, 100, 1024} {
			key := make([]byte, n)
			rng.Read(key)
			addr := s.MemBase() + 0x20000
			if err := s.WriteMem(addr, key); err != nil {
				t.Fatal(err)
			}
			a := JenkinsArgs{KeyAddr: addr, KeyLen: n, InitVal: 77}
			want := ref.Lookup2(key, 77)
			if got := JenkinsSW(s, a); got != want {
				t.Fatalf("%s SW len %d: %#x want %#x", s.Name, n, got, want)
			}
			load(t, s, "jenkins")
			got, err := JenkinsHW(s, a)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s HW len %d: %#x want %#x", s.Name, n, got, want)
			}
		}
	}
}

func TestJenkinsSpeedupModest(t *testing.T) {
	s := sys32(t)
	key := make([]byte, 4096)
	rand.New(rand.NewSource(24)).Read(key)
	addr := s.MemBase() + 0x20000
	if err := s.WriteMem(addr, key); err != nil {
		t.Fatal(err)
	}
	a := JenkinsArgs{KeyAddr: addr, KeyLen: len(key), InitVal: 1}
	swTime := s.Measure(func() { JenkinsSW(s, a) })
	load(t, s, "jenkins")
	var err error
	hwTime := s.Measure(func() { _, err = JenkinsHW(s, a) })
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(swTime) / float64(hwTime)
	// "the speedup in this case is much more modest" (§3.2): above 1 but
	// nowhere near the pattern matcher's >26.
	if speedup < 1.0 || speedup > 5 {
		t.Errorf("32-bit hash speedup = %.2f, want modest (1..5)", speedup)
	}
	t.Logf("sys32 jenkins: sw=%v hw=%v speedup=%.2f", swTime, hwTime, speedup)
}

func TestSHA1SWHWMatchStdlib(t *testing.T) {
	s := sys64(t)
	rng := rand.New(rand.NewSource(25))
	for _, n := range []int{0, 1, 55, 56, 64, 100, 1000} {
		msg := make([]byte, n)
		rng.Read(msg)
		addr := s.MemBase() + 0x30000
		if err := s.WriteMem(addr, msg); err != nil {
			t.Fatal(err)
		}
		a := SHA1Args{MsgAddr: addr, MsgLen: n, PadAddr: s.MemBase() + 0x40000}
		want := sha1.Sum(msg)

		swH, err := SHA1SW(s, a)
		if err != nil {
			t.Fatal(err)
		}
		var got [20]byte
		for i, h := range swH {
			binary.BigEndian.PutUint32(got[4*i:], h)
		}
		if got != want {
			t.Fatalf("SW len %d: %x want %x", n, got, want)
		}

		load(t, s, "sha1")
		hwH, err := SHA1HW(s, a)
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range hwH {
			binary.BigEndian.PutUint32(got[4*i:], h)
		}
		if got != want {
			t.Fatalf("HW len %d: %x want %x", n, got, want)
		}
	}
}

func TestSHA1NotAvailableOn32(t *testing.T) {
	s := sys32(t)
	if _, err := s.LoadModuleOn(0, "sha1", nil); err == nil {
		t.Fatal("sha1 must not be loadable on the 32-bit system (§4.2)")
	}
}

func imageSetup(t *testing.T, s *platform.System, rng *rand.Rand, n int) (ImageArgs, []byte, []byte) {
	t.Helper()
	srcA := make([]byte, n)
	srcB := make([]byte, n)
	rng.Read(srcA)
	rng.Read(srcB)
	a := ImageArgs{
		SrcA:  s.MemBase() + 0x100000,
		SrcB:  s.MemBase() + 0x200000,
		Dst:   s.MemBase() + 0x300000,
		N:     n,
		Delta: 37,
		F:     120,
	}
	if err := s.WriteMem(a.SrcA, srcA); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteMem(a.SrcB, srcB); err != nil {
		t.Fatal(err)
	}
	return a, srcA, srcB
}

func readDst(t *testing.T, s *platform.System, a ImageArgs) []byte {
	t.Helper()
	got, err := s.ReadMem(a.Dst, a.N)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestImageTasksSWHWAgree(t *testing.T) {
	for _, mk := range []func(*testing.T) *platform.System{sys32, sys64} {
		s := mk(t)
		rng := rand.New(rand.NewSource(26))
		a, srcA, srcB := imageSetup(t, s, rng, 512)

		want := make([]byte, a.N)
		ref.Brightness(want, srcA, a.Delta)
		if err := BrightnessSW(s, a); err != nil {
			t.Fatal(err)
		}
		s.CPU.Sync()
		checkBytes(t, s.Name+" brightness SW", readDst(t, s, a), want)
		load(t, s, "brightness")
		if err := BrightnessHW(s, a); err != nil {
			t.Fatal(err)
		}
		checkBytes(t, s.Name+" brightness HW", readDst(t, s, a), want)

		ref.Blend(want, srcA, srcB)
		if err := BlendSW(s, a); err != nil {
			t.Fatal(err)
		}
		s.CPU.Sync()
		checkBytes(t, s.Name+" blend SW", readDst(t, s, a), want)
		load(t, s, "blend")
		if err := BlendHW(s, a); err != nil {
			t.Fatal(err)
		}
		checkBytes(t, s.Name+" blend HW", readDst(t, s, a), want)

		ref.Fade(want, srcA, srcB, a.F)
		if err := FadeSW(s, a); err != nil {
			t.Fatal(err)
		}
		s.CPU.Sync()
		checkBytes(t, s.Name+" fade SW", readDst(t, s, a), want)
		load(t, s, "fade")
		if err := FadeHW(s, a); err != nil {
			t.Fatal(err)
		}
		checkBytes(t, s.Name+" fade HW", readDst(t, s, a), want)
	}
}

func TestImageDMATasks(t *testing.T) {
	s := sys64(t)
	rng := rand.New(rand.NewSource(27))
	a, srcA, srcB := imageSetup(t, s, rng, 64*1024)
	scratch := s.MemBase() + 0x600000
	packed := s.MemBase() + 0x800000

	want := make([]byte, a.N)
	ref.Brightness(want, srcA, a.Delta)
	load(t, s, "brightness")
	if err := BrightnessDMA(s, a, scratch); err != nil {
		t.Fatal(err)
	}
	checkBytes(t, "brightness DMA", readDst(t, s, a), want)

	ref.Blend(want, srcA, srcB)
	load(t, s, "blend")
	res, err := BlendDMA(s, a, scratch, packed)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrepTime == 0 {
		t.Error("blend DMA reported no data-preparation time")
	}
	checkBytes(t, "blend DMA", readDst(t, s, a), want)

	ref.Fade(want, srcA, srcB, a.F)
	load(t, s, "fade")
	res, err = FadeDMA(s, a, scratch, packed)
	if err != nil {
		t.Fatal(err)
	}
	if res.PrepTime == 0 {
		t.Error("fade DMA reported no data-preparation time")
	}
	checkBytes(t, "fade DMA", readDst(t, s, a), want)
}

func TestBrightnessDMAFasterThanCPUControlled(t *testing.T) {
	s := sys64(t)
	rng := rand.New(rand.NewSource(28))
	a, _, _ := imageSetup(t, s, rng, 256*1024)
	scratch := s.MemBase() + 0x600000
	load(t, s, "brightness")
	cpuTime := s.Measure(func() {
		if err := BrightnessHW(s, a); err != nil {
			t.Fatal(err)
		}
	})
	dmaTime := s.Measure(func() {
		if err := BrightnessDMA(s, a, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if dmaTime >= cpuTime {
		t.Errorf("DMA (%v) not faster than CPU-controlled (%v)", dmaTime, cpuTime)
	}
	t.Logf("brightness 256K px: cpu-controlled=%v dma=%v", cpuTime, dmaTime)
}

func checkBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: byte %d = %d, want %d", what, i, got[i], want[i])
		}
	}
}

func TestTransferCPUPatterns(t *testing.T) {
	s32 := sys32(t)
	load(t, s32, "passthrough")
	s64 := sys64(t)
	load(t, s64, "passthrough")
	for _, kind := range []TransferKind{TransferWrite, TransferRead, TransferInterleaved} {
		t32, err := TransferCPU(s32, kind, 4096)
		if err != nil {
			t.Fatal(err)
		}
		t64, err := TransferCPU(s64, kind, 4096)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(t32) / float64(t64)
		t.Logf("%v: sys32=%v sys64=%v ratio=%.1f", kind, t32, t64, ratio)
		// "A decrease in transfer time between 4 and 6 times, depending on
		// the transfer type, can be observed." (§4.2)
		if ratio < 3.0 || ratio > 8.0 {
			t.Errorf("%v: sys32/sys64 ratio %.2f far outside the paper's 4-6x band", kind, ratio)
		}
	}
}

func TestTransferDMAFasterPerItem(t *testing.T) {
	s := sys64(t)
	load(t, s, "passthrough")
	for _, kind := range []TransferKind{TransferWrite, TransferRead, TransferInterleaved} {
		cpuT, err := TransferCPU(s, kind, 4096)
		if err != nil {
			t.Fatal(err)
		}
		dmaT, err := TransferDMA(s, kind, 4096)
		if err != nil {
			t.Fatal(err)
		}
		// A DMA transfer moves 64 bits vs the CPU's 32: compare per byte.
		cpuPerByte := float64(cpuT) / 4
		dmaPerByte := float64(dmaT) / 8
		t.Logf("%v: cpu=%v/32b dma=%v/64b", kind, cpuT, dmaT)
		if dmaPerByte >= cpuPerByte {
			t.Errorf("%v: DMA (%.0f fs/B) not faster than CPU (%.0f fs/B)", kind, dmaPerByte, cpuPerByte)
		}
	}
}

// TestTransferDMAOnEitherRegion: a DMA transfer drives the active region's
// dock — its core, output FIFO, DMA engine and interrupt line — so every
// pattern costs the same per transfer on either region of a dual-region
// board.
func TestTransferDMAOnEitherRegion(t *testing.T) {
	const n = 512
	perTransfer := func(ri int, kind TransferKind) sim.Time {
		t.Helper()
		s, err := platform.NewSys64N(2)
		if err != nil {
			t.Fatal(err)
		}
		var per sim.Time
		if _, err := s.ExecuteOn(ri, "passthrough", func() (err error) {
			per, err = TransferDMA(s, kind, n)
			return err
		}); err != nil {
			t.Fatalf("region %d, %v: %v", ri, kind, err)
		}
		return per
	}
	for _, kind := range []TransferKind{TransferWrite, TransferRead, TransferInterleaved} {
		r0, r1 := perTransfer(0, kind), perTransfer(1, kind)
		t.Logf("%v: region 0 %v, region 1 %v per transfer", kind, r0, r1)
		if r0 == 0 || r1 != r0 {
			t.Errorf("%v: %v per transfer on region 0, %v on region 1; want equal and nonzero", kind, r0, r1)
		}
	}
}

func TestTransferTimesAreStable(t *testing.T) {
	s := sys32(t)
	load(t, s, "passthrough")
	a, err := TransferCPU(s, TransferWrite, 1024)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TransferCPU(s, TransferWrite, 1024)
	if err != nil {
		t.Fatal(err)
	}
	diff := float64(a) - float64(b)
	if diff < 0 {
		diff = -diff
	}
	if diff/float64(a) > 0.02 {
		t.Errorf("transfer time not stable: %v vs %v", a, b)
	}
	_ = sim.Time(0)
}
