package hwcore

import (
	"crypto/sha1"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/busmacro"
	"repro/internal/fabric"
	"repro/internal/ref"
)

// --- Pattern matcher ---

// drivePatternMatch streams an image through the core exactly as the
// platform driver does and returns (bestX, bestY, bestCount, hits),
// accumulating them from the per-position count stream.
func drivePatternMatch(pm *PatternMatch, im *ref.BinaryImage, p ref.Pattern8, threshold int) (int, int, int, int) {
	pm.Reset()
	pm.Write(uint64(p[0])<<24|uint64(p[1])<<16|uint64(p[2])<<8|uint64(p[3]), 4)
	pm.Write(uint64(p[4])<<24|uint64(p[5])<<16|uint64(p[6])<<8|uint64(p[7]), 4)
	wpr := im.WordsPerRow()
	bands := im.H - 7
	pm.Write(uint64(wpr)<<12|uint64(bands), 4)
	positions := im.W - 7
	bestX, bestY, bestCount, hits := 0, 0, -1, 0
	for b := 0; b < bands; b++ {
		for c := 0; c < wpr; c++ {
			for j := 0; j < 8; j++ {
				pm.Write(uint64(im.Words[(b+j)*wpr+c]), 4)
			}
		}
		for rw := 0; rw < ResultWordsPerBand(im.W); rw++ {
			w := uint32(pm.Read())
			for j := 0; j < 4; j++ {
				x := 4*rw + j
				if x >= positions {
					break
				}
				count := int(w >> uint(8*(3-j)) & 0xFF)
				if count > bestCount {
					bestX, bestY, bestCount = x, b, count
				}
				if count >= threshold {
					hits++
				}
			}
		}
	}
	return bestX, bestY, bestCount, hits
}

func TestPatternMatchAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		im := ref.NewBinaryImage(64, 32)
		for i := range im.Words {
			im.Words[i] = rng.Uint32()
		}
		var p ref.Pattern8
		for j := range p {
			p[j] = byte(rng.Uint32())
		}
		// Plant the pattern somewhere to make the best match unambiguous.
		px, py := rng.Intn(im.W-8), rng.Intn(im.H-8)
		for j := 0; j < 8; j++ {
			for i := 0; i < 8; i++ {
				im.Set(px+i, py+j, int(p[j]>>(7-uint(i))&1))
			}
		}
		wx, wy, wc, wh := ref.BestMatch(im, p, 60)
		gx, gy, gc, gh := drivePatternMatch(NewPatternMatch(), im, p, 60)
		if gx != wx || gy != wy || gc != wc || gh != wh {
			t.Fatalf("trial %d: hw=(%d,%d,%d,%d) ref=(%d,%d,%d,%d)",
				trial, gx, gy, gc, gh, wx, wy, wc, wh)
		}
		if gc != 64 {
			t.Fatalf("planted pattern not found (count %d)", gc)
		}
	}
}

func TestPatternMatch64BitWrites(t *testing.T) {
	// Feeding the same stream as 64-bit beats (two words per beat, high
	// first) must give the same count stream as 32-bit writes.
	rng := rand.New(rand.NewSource(8))
	im := ref.NewBinaryImage(64, 16)
	for i := range im.Words {
		im.Words[i] = rng.Uint32()
	}
	var p ref.Pattern8
	for j := range p {
		p[j] = byte(rng.Uint32())
	}

	var words []uint32
	words = append(words,
		uint32(p[0])<<24|uint32(p[1])<<16|uint32(p[2])<<8|uint32(p[3]),
		uint32(p[4])<<24|uint32(p[5])<<16|uint32(p[6])<<8|uint32(p[7]),
		uint32(im.WordsPerRow())<<12|uint32(im.H-7))
	for b := 0; b < im.H-7; b++ {
		for c := 0; c < im.WordsPerRow(); c++ {
			for j := 0; j < 8; j++ {
				words = append(words, im.Words[(b+j)*im.WordsPerRow()+c])
			}
		}
	}

	pm32 := NewPatternMatch()
	for _, w := range words {
		pm32.Write(uint64(w), 4)
	}
	pm64 := NewPatternMatch()
	w2 := append([]uint32{}, words...)
	if len(w2)%2 == 1 {
		w2 = append(w2, 0) // pad; ignored after the last band
	}
	for i := 0; i < len(w2); i += 2 {
		pm64.Write(uint64(w2[i])<<32|uint64(w2[i+1]), 8)
	}
	if pm32.CountsAvailable() != pm64.CountsAvailable() {
		t.Fatalf("count words: 32-bit feed %d, 64-bit feed %d",
			pm32.CountsAvailable(), pm64.CountsAvailable())
	}
	n := pm32.CountsAvailable()
	for i := 0; i < n; i++ {
		if pm32.Read() != pm64.Read() {
			t.Fatalf("result word %d differs between feed widths", i)
		}
	}
}

// --- Jenkins ---

// driveJenkins streams a key through the hash core as the driver does.
func driveJenkins(j *Jenkins, key []byte, initval uint32) uint32 {
	j.Reset()
	j.Write(uint64(len(key)), 4)
	j.Write(uint64(initval), 4)
	full := len(key) / 12
	le := func(b []byte, n int) uint32 {
		var v uint32
		for i := 0; i < n && i < len(b); i++ {
			v |= uint32(b[i]) << (8 * uint(i))
		}
		return v
	}
	for r := 0; r < full; r++ {
		k := key[12*r:]
		j.Write(uint64(le(k, 4)), 4)
		j.Write(uint64(le(k[4:], 4)), 4)
		j.Write(uint64(le(k[8:], 4)), 4)
	}
	tail := key[12*full:]
	var a, b, c uint32
	a = le(tail, 4)
	if len(tail) > 4 {
		b = le(tail[4:], 4)
	}
	if len(tail) > 8 {
		c = le(tail[8:], 3) // bytes 8..10 only; k[11] would be a full round
	}
	j.Write(uint64(a), 4)
	j.Write(uint64(b), 4)
	j.Write(uint64(c), 4)
	return uint32(j.Read())
}

func TestJenkinsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for n := 0; n <= 64; n++ {
		key := make([]byte, n)
		rng.Read(key)
		want := ref.Lookup2(key, 12345)
		got := driveJenkins(NewJenkins(), key, 12345)
		if got != want {
			t.Fatalf("len %d: hw=%#x ref=%#x", n, got, want)
		}
	}
}

func TestJenkinsProperty(t *testing.T) {
	j := NewJenkins()
	f := func(key []byte, initval uint32) bool {
		return driveJenkins(j, key, initval) == ref.Lookup2(key, initval)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- SHA-1 ---

// padSHA1 produces the padded message blocks (RFC 3174 padding).
func padSHA1(msg []byte) []uint32 {
	l := len(msg)
	padded := make([]byte, 0, l+72)
	padded = append(padded, msg...)
	padded = append(padded, 0x80)
	for len(padded)%64 != 56 {
		padded = append(padded, 0)
	}
	var lenBytes [8]byte
	binary.BigEndian.PutUint64(lenBytes[:], uint64(l)*8)
	padded = append(padded, lenBytes[:]...)
	words := make([]uint32, len(padded)/4)
	for i := range words {
		words[i] = binary.BigEndian.Uint32(padded[4*i:])
	}
	return words
}

func driveSHA1(s *SHA1, msg []byte) [20]byte {
	s.Reset()
	for _, w := range padSHA1(msg) {
		s.Write(uint64(w), 4)
	}
	var digest [20]byte
	for i := 0; i < 5; i++ {
		binary.BigEndian.PutUint32(digest[4*i:], uint32(s.Read()))
	}
	return digest
}

func TestSHA1MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	core := NewSHA1()
	for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 128, 1000} {
		msg := make([]byte, n)
		rng.Read(msg)
		want := sha1.Sum(msg)
		got := driveSHA1(core, msg)
		if got != want {
			t.Fatalf("len %d: hw=%x want=%x", n, got, want)
		}
	}
}

func TestSHA1Property(t *testing.T) {
	core := NewSHA1()
	f := func(msg []byte) bool {
		return driveSHA1(core, msg) == sha1.Sum(msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// --- Image cores ---

func TestBrightnessCoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, delta := range []int{-150, -1, 0, 1, 100, 255} {
		src := make([]byte, 32)
		rng.Read(src)
		want := make([]byte, len(src))
		ref.Brightness(want, src, delta)

		b := NewBrightness()
		b.Write(uint64(uint16(int16(delta))), 4)
		got := make([]byte, 0, len(src))
		for i := 0; i < len(src); i += 4 {
			w := uint64(src[i])<<24 | uint64(src[i+1])<<16 | uint64(src[i+2])<<8 | uint64(src[i+3])
			b.Write(w, 4)
			r := b.Read()
			got = append(got, byte(r>>24), byte(r>>16), byte(r>>8), byte(r))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("delta %d px %d: hw=%d ref=%d", delta, i, got[i], want[i])
			}
		}
	}
}

func TestBrightness64BitPath(t *testing.T) {
	b := NewBrightness()
	delta := int16(-10)
	b.Write(uint64(uint16(delta)), 8)
	b.Write(0x0005_0A0F_1450_FFFE, 8)
	want := []byte{0, 0, 0, 5, 10, 70, 245, 244}
	v, ok := b.PopOut()
	if !ok {
		t.Fatal("no stream output")
	}
	for i, w := range want {
		if byte(v>>uint(8*(7-i))) != w {
			t.Fatalf("px %d: got %d want %d", i, byte(v>>uint(8*(7-i))), w)
		}
	}
}

func TestBlendCoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := make([]byte, 16)
	bb := make([]byte, 16)
	rng.Read(a)
	rng.Read(bb)
	want := make([]byte, 16)
	ref.Blend(want, a, bb)

	core := NewBlend()
	var got []byte
	for i := 0; i < 16; i += 2 {
		w := uint64(a[i])<<24 | uint64(a[i+1])<<16 | uint64(bb[i])<<8 | uint64(bb[i+1])
		core.Write(w, 4)
		if (i/2)%2 == 1 { // every second write: 4 pixels ready
			r := core.Read()
			got = append(got, byte(r>>24), byte(r>>16), byte(r>>8), byte(r))
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("px %d: hw=%d ref=%d", i, got[i], want[i])
		}
	}
}

func TestFadeCoreMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := make([]byte, 16)
	bb := make([]byte, 16)
	rng.Read(a)
	rng.Read(bb)
	for _, f := range []int{0, 64, 128, 200, 256} {
		want := make([]byte, 16)
		ref.Fade(want, a, bb, f)
		core := NewFade()
		core.Write(uint64(f), 4)
		var got []byte
		for i := 0; i < 16; i += 2 {
			w := uint64(a[i])<<24 | uint64(a[i+1])<<16 | uint64(bb[i])<<8 | uint64(bb[i+1])
			core.Write(w, 4)
			if (i/2)%2 == 1 {
				r := core.Read()
				got = append(got, byte(r>>24), byte(r>>16), byte(r>>8), byte(r))
			}
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("f=%d px %d: hw=%d ref=%d", f, i, got[i], want[i])
			}
		}
	}
}

func TestCombiner64BitStream(t *testing.T) {
	// 64-bit blend: 4+4 pixels per beat, outputs packed 8 per word after
	// two beats.
	core := NewBlend()
	core.Write(0x01020304_05060708, 8) // A=1,2,3,4  B=5,6,7,8
	if _, ok := core.PopOut(); ok {
		t.Fatal("output before a full 8-pixel word")
	}
	core.Write(0x11121314_15161718, 8)
	v, ok := core.PopOut()
	if !ok {
		t.Fatal("no output after two beats")
	}
	want := []byte{6, 8, 10, 12, 0x26, 0x28, 0x2A, 0x2C}
	for i, w := range want {
		if byte(v>>uint(8*(7-i))) != w {
			t.Fatalf("px %d = %#x want %#x", i, byte(v>>uint(8*(7-i))), w)
		}
	}
}

// --- Specs and component building ---

func TestSpecsFitTheirSystems(t *testing.T) {
	v7, r32 := fabric.XC2VP7(), fabric.DynamicRegion32()
	v30, r64 := fabric.XC2VP30(), fabric.DynamicRegion64()
	d32, d64 := busmacro.Dock32(), busmacro.Dock64()
	for _, s := range Specs() {
		_, err64 := BuildComponent(s, v30, r64, d64)
		if err64 != nil {
			t.Errorf("%s must fit the 64-bit system: %v", s.Name, err64)
		}
		_, err32 := BuildComponent(s, v7, r32, d32)
		if s.Name == "sha1" {
			if err32 == nil {
				t.Error("sha1 must NOT fit the 32-bit dynamic area (paper §4.2)")
			}
		} else if err32 != nil {
			t.Errorf("%s must fit the 32-bit system: %v", s.Name, err32)
		}
	}
}

func TestBuildComponentDeterministic(t *testing.T) {
	s, err := SpecByName("jenkins")
	if err != nil {
		t.Fatal(err)
	}
	v7, r32 := fabric.XC2VP7(), fabric.DynamicRegion32()
	c1, err := BuildComponent(s, v7, r32, busmacro.Dock32())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := BuildComponent(s, v7, r32, busmacro.Dock32())
	if err != nil {
		t.Fatal(err)
	}
	if c1.W != c2.W || c1.H != c2.H || c1.BRAMSeed != c2.BRAMSeed {
		t.Fatal("component build not deterministic")
	}
	if c1.H != r32.H {
		t.Fatalf("component height %d, want region height %d", c1.H, r32.H)
	}
	if err := c1.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := SpecByName("nonexistent"); err == nil {
		t.Fatal("unknown spec accepted")
	}
}

func TestCoreResets(t *testing.T) {
	cores := []interface {
		Reset()
		Write(uint64, int)
		Read() uint64
		Name() string
	}{
		NewPatternMatch(), NewJenkins(), NewSHA1(), NewBrightness(), NewBlend(), NewFade(), NewPassthrough(),
	}
	for _, c := range cores {
		c.Write(123, 4)
		c.Write(45, 4)
		c.Reset()
		c.Write(1, 4)
		// Just exercising: Reset must not leave the core unusable.
		_ = c.Read()
	}
}

// TestOutQueueReusesItsArray: an output queue popped as fast as it is
// pushed, as the PLB Dock drains a core, allocates nothing once warm, and
// every refill pops in push order, however full it ran before. A core's
// Reset empties its queue and keeps the array.
func TestOutQueueReusesItsArray(t *testing.T) {
	var o outQueue
	next, want := uint64(0), uint64(0)
	cycle := func(n int) {
		for range n {
			o.push(next)
			next++
		}
		for range n {
			v, ok := o.pop()
			if !ok || v != want {
				t.Fatalf("pop = %d, %v; want %d in push order", v, ok, want)
			}
			want++
		}
		if v, ok := o.pop(); ok {
			t.Fatalf("pop from an emptied queue = %d", v)
		}
	}
	for _, n := range []int{1, 7, 3, 64, 1, 2} {
		cycle(n)
	}
	// Interleaved: pops that leave part of the queue, then a refill.
	o.push(100)
	o.push(101)
	if v, _ := o.pop(); v != 100 {
		t.Fatalf("pop = %d, want 100", v)
	}
	o.push(102)
	for _, w := range []uint64{101, 102} {
		if v, ok := o.pop(); !ok || v != w {
			t.Fatalf("pop = %d, %v; want %d", v, ok, w)
		}
	}
	if n := testing.AllocsPerRun(1000, func() { cycle(1) }); n != 0 {
		t.Errorf("a warm push/pop cycle allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { cycle(64) }); n != 0 {
		t.Errorf("a warm 64-word refill allocates %v times, want 0", n)
	}
	// A core's Reset keeps its queue's array: a transfer after it
	// allocates nothing either.
	pt := NewPassthrough()
	pt.Write(1, 4)
	if n := testing.AllocsPerRun(100, func() {
		pt.Reset()
		pt.Write(2, 4)
		if v, ok := pt.PopOut(); !ok || v != 2 {
			t.Fatalf("PopOut after Reset = %d, %v; want 2", v, ok)
		}
		if _, ok := pt.PopOut(); ok {
			t.Fatal("Reset left an output queued")
		}
	}); n != 0 {
		t.Errorf("Reset, push and pop allocate %v times, want 0", n)
	}
}
