package fabric

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestPublishedCapacities(t *testing.T) {
	v7 := XC2VP7()
	if err := v7.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := v7.SliceCount(); got != 4928 {
		t.Errorf("XC2VP7 slices = %d, want 4928 (paper §3.1)", got)
	}
	if got := v7.BRAMCount(); got != 44 {
		t.Errorf("XC2VP7 BRAMs = %d, want 44 (paper §3.1)", got)
	}
	v30 := XC2VP30()
	if err := v30.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := v30.SliceCount(); got != 13696 {
		t.Errorf("XC2VP30 slices = %d, want 13696 (paper §4.1)", got)
	}
	if got := v30.BRAMCount(); got != 136 {
		t.Errorf("XC2VP30 BRAMs = %d, want 136 (paper §4.1)", got)
	}
	// "about 2.7 times more slices than the previously used device"
	ratio := float64(v30.SliceCount()) / float64(v7.SliceCount())
	if ratio < 2.6 || ratio > 2.9 {
		t.Errorf("slice ratio = %.2f, want ~2.7", ratio)
	}
}

func TestDynamicRegions(t *testing.T) {
	v7, r32 := XC2VP7(), DynamicRegion32()
	if err := v7.ValidateRegion(r32); err != nil {
		t.Fatal(err)
	}
	if got := r32.CLBs(); got != 308 {
		t.Errorf("dynamic32 CLBs = %d, want 308 = 28x11", got)
	}
	// "the dynamic area contains 25% of the total number of slices"
	if pct := 100 * float64(r32.Slices()) / float64(v7.SliceCount()); pct != 25.0 {
		t.Errorf("dynamic32 slice share = %.2f%%, want 25%%", pct)
	}
	if r32.BRAMBudget != 6 {
		t.Errorf("dynamic32 BRAMs = %d, want 6", r32.BRAMBudget)
	}
	if got := v7.BRAMsContained(r32); got != 6 {
		t.Errorf("dynamic32 fully-contained BRAMs = %d, want 6", got)
	}

	v30, r64 := XC2VP30(), DynamicRegion64()
	if err := v30.ValidateRegion(r64); err != nil {
		t.Fatal(err)
	}
	if got := r64.CLBs(); got != 768 {
		t.Errorf("dynamic64 CLBs = %d, want 768 = 32x24", got)
	}
	if got := r64.Slices(); got != 3072 {
		t.Errorf("dynamic64 slices = %d, want 3072", got)
	}
	// "3072 slices (22.4% of the total)"
	pct := 100 * float64(r64.Slices()) / float64(v30.SliceCount())
	if pct < 22.3 || pct > 22.5 {
		t.Errorf("dynamic64 slice share = %.2f%%, want ~22.4%%", pct)
	}
	if r64.BRAMBudget != 22 {
		t.Errorf("dynamic64 BRAMs = %d, want 22", r64.BRAMBudget)
	}
	if max := v30.BRAMsIntersecting(r64); max < 22 {
		t.Errorf("dynamic64 intersecting BRAMs = %d, must cover budget 22", max)
	}
	// Neither region spans the full height: the paper explains a full-height
	// dynamic area would isolate the two sides of the device.
	if v7.FullHeight(r32) || v30.FullHeight(r64) {
		t.Error("dynamic regions must not span the full device height")
	}
}

func TestRegionValidation(t *testing.T) {
	d := XC2VP7()
	cases := []struct {
		name string
		r    Region
	}{
		{"out of bounds", Region{Name: "r", Col0: 30, Row0: 0, W: 10, H: 10}},
		{"overlaps hard block", Region{Name: "r", Col0: 25, Row0: 25, W: 5, H: 5}},
		{"negative extent", Region{Name: "r", Col0: 0, Row0: 0, W: -1, H: 5}},
		{"BRAM overcommit", Region{Name: "r", Col0: 0, Row0: 7, W: 28, H: 11, BRAMBudget: 100}},
	}
	for _, c := range cases {
		if err := d.ValidateRegion(c.r); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestFARRoundTrip(t *testing.T) {
	f := func(block bool, major, minor uint16) bool {
		far := FAR{Block: BlockCLB, Major: int(major & 0x3FFF), Minor: int(minor & 0x3FFF)}
		if block {
			far.Block = BlockBRAM
		}
		return ParseFAR(far.Word()) == far
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameIndexRoundTrip(t *testing.T) {
	for _, d := range []*Device{XC2VP7(), XC2VP30()} {
		seen := make(map[int]bool)
		for i := 0; i < d.NumFrames(); i++ {
			far, err := d.FARAt(i)
			if err != nil {
				t.Fatalf("%s: FARAt(%d): %v", d.Name, i, err)
			}
			j, err := d.FrameIndex(far)
			if err != nil {
				t.Fatalf("%s: FrameIndex(%v): %v", d.Name, far, err)
			}
			if j != i {
				t.Fatalf("%s: roundtrip %d -> %v -> %d", d.Name, i, far, j)
			}
			if seen[j] {
				t.Fatalf("%s: duplicate index %d", d.Name, j)
			}
			seen[j] = true
		}
	}
}

func TestNextFAR(t *testing.T) {
	d := XC2VP7()
	far, _ := d.FARAt(0)
	count := 1
	for {
		next, ok := d.NextFAR(far)
		if !ok {
			break
		}
		far = next
		count++
	}
	if count != d.NumFrames() {
		t.Fatalf("walked %d frames, want %d", count, d.NumFrames())
	}
}

func TestFrameIndexErrors(t *testing.T) {
	d := XC2VP7()
	bad := []FAR{
		{Block: BlockCLB, Major: d.Cols, Minor: 0},
		{Block: BlockCLB, Major: 0, Minor: FramesPerCLBColumn},
		{Block: BlockBRAM, Major: len(d.BRAMColPos), Minor: 0},
		{Block: BlockBRAM, Major: 0, Minor: FramesPerBRAMColumn},
		{Block: BlockType(7), Major: 0, Minor: 0},
	}
	for _, f := range bad {
		if _, err := d.FrameIndex(f); err == nil {
			t.Errorf("FrameIndex(%v): expected error", f)
		}
	}
	if _, err := d.FARAt(-1); err == nil {
		t.Error("FARAt(-1): expected error")
	}
	if _, err := d.FARAt(d.NumFrames()); err == nil {
		t.Error("FARAt(NumFrames): expected error")
	}
}

func TestConfigMemoryWriteRead(t *testing.T) {
	d := XC2VP7()
	cm := NewConfigMemory(d)
	far := FAR{Block: BlockCLB, Major: 5, Minor: 3}
	data := make([]uint32, d.FrameLen())
	for i := range data {
		data[i] = uint32(i * 7)
	}
	if err := cm.WriteFrame(far, data); err != nil {
		t.Fatal(err)
	}
	got, err := cm.ReadFrame(far)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("word %d: got %#x want %#x", i, got[i], data[i])
		}
	}
	// Wrong length rejected.
	if err := cm.WriteFrame(far, data[:10]); err == nil {
		t.Fatal("short frame write accepted")
	}
	// Readback is a copy: mutating it must not affect the memory.
	got[0] ^= 0xFFFFFFFF
	again, _ := cm.ReadFrame(far)
	if again[0] != data[0] {
		t.Fatal("ReadFrame returned a live reference")
	}
}

func TestRegionHashTracksRegionOnly(t *testing.T) {
	d := XC2VP7()
	r := DynamicRegion32()
	cm := NewConfigMemory(d)
	h0 := cm.RegionHash(r)
	s0 := cm.StaticHash(r)

	// Writing a frame word inside the region band changes the region hash
	// but not the static hash.
	far := FAR{Block: BlockCLB, Major: r.Col0 + 2, Minor: 1}
	frame := make([]uint32, d.FrameLen())
	lo, _ := d.RowWordRange(r.Row0, r.H)
	frame[lo] = 0xDEAD
	if err := cm.WriteFrame(far, frame); err != nil {
		t.Fatal(err)
	}
	if cm.RegionHash(r) == h0 {
		t.Error("region hash unchanged after in-region write")
	}
	if cm.StaticHash(r) != s0 {
		t.Error("static hash changed by in-region write")
	}

	// Writing above the band (same column) changes the static hash but
	// restores the region hash if the band words are zeroed again.
	frame2 := make([]uint32, d.FrameLen())
	_, hi := d.RowWordRange(r.Row0, r.H)
	frame2[hi] = 0xBEEF // first word above the band
	if err := cm.WriteFrame(far, frame2); err != nil {
		t.Fatal(err)
	}
	if cm.RegionHash(r) != h0 {
		t.Error("region hash affected by out-of-band write")
	}
	if cm.StaticHash(r) == s0 {
		t.Error("static hash unchanged after out-of-band write")
	}
}

func TestRegionHashCoversBRAMColumns(t *testing.T) {
	d := XC2VP7()
	r := DynamicRegion32()
	cm := NewConfigMemory(d)
	h0 := cm.RegionHash(r)
	bcols := d.BRAMColumns(r)
	if len(bcols) == 0 {
		t.Fatal("dynamic32 must enclose BRAM columns")
	}
	frame := make([]uint32, d.FrameLen())
	lo, _ := d.RowWordRange(r.Row0, r.H)
	frame[lo] = 1
	if err := cm.WriteFrame(FAR{Block: BlockBRAM, Major: bcols[0], Minor: 0}, frame); err != nil {
		t.Fatal(err)
	}
	if cm.RegionHash(r) == h0 {
		t.Error("region hash ignores enclosed BRAM column contents")
	}
}

// A region encloses a BRAM column only when the CLB columns on both sides
// of it are inside the region; touching it from one side is not enough.
func TestBRAMColumnsNeedBothNeighbours(t *testing.T) {
	d := XC2VP7() // BRAM columns sit right of CLB columns 1, 3, 30 and 32
	for _, c := range []struct {
		col0, w int
		want    []int
	}{
		{0, 2, nil}, // columns 0-1: left neighbour of BRAM 0 only
		{2, 2, nil}, // columns 2-3: right of BRAM 0, left of BRAM 1
		{1, 2, []int{0}},
		{0, 28, []int{0, 1}},
		{0, d.Cols, []int{0, 1, 2, 3}},
	} {
		r := Region{Name: "r", Col0: c.col0, W: c.w, H: 1}
		if got := d.BRAMColumns(r); !slices.Equal(got, c.want) {
			t.Errorf("columns [%d,%d): BRAMColumns = %v, want %v", c.col0, c.col0+c.w, got, c.want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := XC2VP7()
	cm := NewConfigMemory(d)
	far := FAR{Block: BlockCLB, Major: 0, Minor: 0}
	frame := make([]uint32, d.FrameLen())
	frame[5] = 42
	if err := cm.WriteFrame(far, frame); err != nil {
		t.Fatal(err)
	}
	snap := cm.Clone()
	frame[5] = 99
	if err := cm.WriteFrame(far, frame); err != nil {
		t.Fatal(err)
	}
	got, _ := snap.ReadFrame(far)
	if got[5] != 42 {
		t.Fatalf("clone mutated: word=%d want 42", got[5])
	}
}

// Property: the region hash is a pure function of the region's bits — random
// writes confined to the region band always leave the static hash intact, and
// restoring the region's frames restores its hash.
func TestRegionHashProperty(t *testing.T) {
	d := XC2VP7()
	r := DynamicRegion32()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cm := NewConfigMemory(d)
		s0 := cm.StaticHash(r)
		lo, hi := d.RowWordRange(r.Row0, r.H)
		for n := 0; n < 10; n++ {
			col := r.Col0 + rng.Intn(r.W)
			minor := rng.Intn(FramesPerCLBColumn)
			far := FAR{Block: BlockCLB, Major: col, Minor: minor}
			frame, _ := cm.ReadFrame(far)
			frame[lo+rng.Intn(hi-lo)] = rng.Uint32()
			if err := cm.WriteFrame(far, frame); err != nil {
				return false
			}
		}
		if cm.StaticHash(r) != s0 {
			return false
		}
		// Restore: zero the band everywhere in the region.
		for col := r.Col0; col < r.Col0+r.W; col++ {
			for minor := 0; minor < FramesPerCLBColumn; minor++ {
				far := FAR{Block: BlockCLB, Major: col, Minor: minor}
				frame, _ := cm.ReadFrame(far)
				for i := lo; i < hi; i++ {
					frame[i] = 0
				}
				if err := cm.WriteFrame(far, frame); err != nil {
					return false
				}
			}
		}
		return cm.RegionHash(r) == NewConfigMemory(d).RegionHash(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestResources(t *testing.T) {
	a := Resources{Slices: 100, LUTs: 150, FFs: 120, BRAMs: 2}
	b := Resources{Slices: 50, LUTs: 60, FFs: 70, BRAMs: 1}
	sum := a.Add(b)
	if sum.Slices != 150 || sum.LUTs != 210 || sum.FFs != 190 || sum.BRAMs != 3 {
		t.Fatalf("Add = %+v", sum)
	}
	r := DynamicRegion32()
	if !(Resources{Slices: 1232, BRAMs: 6}).FitsRegion(r) {
		t.Error("exact-fit resources should fit region")
	}
	if (Resources{Slices: 1233}).FitsRegion(r) {
		t.Error("oversized resources should not fit region")
	}
	if (Resources{BRAMs: 7}).FitsRegion(r) {
		t.Error("BRAM overcommit should not fit region")
	}
	d := XC2VP7()
	if !(Resources{Slices: 4928, BRAMs: 44}).FitsDevice(d) {
		t.Error("device-exact resources should fit device")
	}
	if (Resources{Slices: 4929}).FitsDevice(d) {
		t.Error("oversized resources should not fit device")
	}
	if pct := (Resources{Slices: 1232}).SlicePercent(d); pct != 25 {
		t.Errorf("SlicePercent = %f, want 25", pct)
	}
}

func TestDeviceMetrics(t *testing.T) {
	d := XC2VP7()
	if d.LUTCount() != 2*d.SliceCount() || d.FFCount() != 2*d.SliceCount() {
		t.Error("LUT/FF counts must be 2 per slice")
	}
	if d.FrameLen() != 3+3*d.Rows {
		t.Errorf("FrameLen = %d", d.FrameLen())
	}
	wantFrames := d.Cols*FramesPerCLBColumn + len(d.BRAMColPos)*FramesPerBRAMColumn
	if d.NumFrames() != wantFrames {
		t.Errorf("NumFrames = %d want %d", d.NumFrames(), wantFrames)
	}
	if d.ConfigBits() != wantFrames*d.FrameLen()*32 {
		t.Error("ConfigBits inconsistent")
	}
	if !d.SiteDisplaced(30, 30) {
		t.Error("site inside PPC405 block should be displaced")
	}
	if d.SiteDisplaced(0, 0) {
		t.Error("site (0,0) should not be displaced")
	}
}

func TestSecondDynamicRegion(t *testing.T) {
	// The paper's §4.1 future-work suggestion: a second dynamic area using
	// the free slices near the second CPU core.
	d := XC2VP30()
	a, b := DynamicRegion64(), DynamicRegion64B()
	if err := d.ValidateRegion(b); err != nil {
		t.Fatal(err)
	}
	// The two regions must not overlap (column ranges are disjoint).
	if a.Col0+a.W > b.Col0 && b.Col0+b.W > a.Col0 &&
		a.Row0+a.H > b.Row0 && b.Row0+b.H > a.Row0 {
		t.Fatal("dynamic regions overlap")
	}
	if b.CLBs() != 192 {
		t.Errorf("second region CLBs = %d, want 192", b.CLBs())
	}
	// Both regions' frames hash independently: writing one must not affect
	// the other.
	cm := NewConfigMemory(d)
	ha, hb := cm.RegionHash(a), cm.RegionHash(b)
	lo, _ := d.RowWordRange(b.Row0, b.H)
	frame := make([]uint32, d.FrameLen())
	frame[lo] = 0xCAFE
	if err := cm.WriteFrame(FAR{Block: BlockCLB, Major: b.Col0, Minor: 0}, frame); err != nil {
		t.Fatal(err)
	}
	if cm.RegionHash(a) != ha {
		t.Error("write in region B changed region A's hash")
	}
	if cm.RegionHash(b) == hb {
		t.Error("write in region B did not change its own hash")
	}
	// The static hash excluding both regions is also unaffected.
	if cm.StaticHash(a, b) != NewConfigMemory(d).StaticHash(a, b) {
		t.Error("static hash (excluding both regions) affected")
	}
}

// staticHashPerWord is the reference form of StaticHash: it asks of every
// frame word whether a region owns it.
func staticHashPerWord(cm *ConfigMemory, regions ...Region) uint64 {
	h := uint64(fnvOffset)
	for col := 0; col < cm.dev.Cols; col++ {
		for minor := 0; minor < FramesPerCLBColumn; minor++ {
			f := cm.frame(FAR{Block: BlockCLB, Major: col, Minor: minor})
			for wi, w := range f {
				if wordInRegions(cm.dev, regions, col, wi, false, 0) {
					continue
				}
				h = fnvWord(h, w)
			}
		}
	}
	for bcol := range cm.dev.BRAMColPos {
		for minor := 0; minor < FramesPerBRAMColumn; minor++ {
			f := cm.frame(FAR{Block: BlockBRAM, Major: bcol, Minor: minor})
			for wi, w := range f {
				if wordInRegions(cm.dev, regions, 0, wi, true, bcol) {
					continue
				}
				h = fnvWord(h, w)
			}
		}
	}
	return h
}

// wordInRegions reports whether frame word index wi of the given column
// belongs to one of the regions.
func wordInRegions(d *Device, regions []Region, col, wi int, bram bool, bcol int) bool {
	for _, r := range regions {
		lo, hi := d.RowWordRange(r.Row0, r.H)
		if wi < lo || wi >= hi {
			continue
		}
		if bram {
			for _, c := range d.BRAMColumns(r) {
				if c == bcol {
					return true
				}
			}
			continue
		}
		if r.ContainsCol(col) {
			return true
		}
	}
	return false
}

// StaticHash equals the per-word reference bit for bit, on random frame
// contents of both devices, for every region set the system uses plus the
// edge cases: none, the whole device, overlapping regions, and two regions
// stacked in the same columns with a static gap between their bands.
func TestStaticHashMatchesPerWordReference(t *testing.T) {
	whole := func(d *Device) Region { return Region{Name: "whole", W: d.Cols, H: d.Rows} }
	overlapA := Region{Name: "overlap.a", Col0: 1, Row0: 4, W: 12, H: 20}
	overlapB := Region{Name: "overlap.b", Col0: 6, Row0: 14, W: 14, H: 18}
	stackedA := Region{Name: "stacked.a", Col0: 0, Row0: 2, W: 8, H: 6}
	stackedB := Region{Name: "stacked.b", Col0: 0, Row0: 20, W: 8, H: 6}
	cases := []struct {
		dev     *Device
		regions []Region
	}{
		{XC2VP7(), nil},
		{XC2VP7(), []Region{DynamicRegion32()}},
		{XC2VP7(), []Region{whole(XC2VP7())}},
		{XC2VP7(), []Region{overlapA, overlapB}},
		{XC2VP7(), []Region{stackedB, stackedA}},
		{XC2VP30(), nil},
		{XC2VP30(), []Region{DynamicRegion64()}},
		{XC2VP30(), []Region{DynamicRegion64B()}},
		{XC2VP30(), []Region{DynamicRegion64(), DynamicRegion64B()}},
		{XC2VP30(), []Region{whole(XC2VP30())}},
		{XC2VP30(), []Region{overlapA, overlapB}},
		{XC2VP30(), []Region{stackedA, stackedB}},
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		cm := NewConfigMemory(c.dev)
		for _, f := range cm.frames {
			for i := range f {
				f[i] = rng.Uint32()
			}
		}
		if got, want := cm.StaticHash(c.regions...), staticHashPerWord(cm, c.regions...); got != want {
			t.Errorf("%s %v: StaticHash = %#x, per-word reference = %#x", c.dev.Name, c.regions, got, want)
		}
	}
}

// BenchmarkStaticHash times one static hash of the XC2VP30 with both 64-bit
// regions left out, the check the 64-bit system runs after a configuration.
func BenchmarkStaticHash(b *testing.B) {
	d := XC2VP30()
	cm := NewConfigMemory(d)
	rng := rand.New(rand.NewSource(1))
	for _, f := range cm.frames {
		for i := range f {
			f[i] = rng.Uint32()
		}
	}
	regions := []Region{DynamicRegion64(), DynamicRegion64B()}
	b.ReportAllocs()
	b.ResetTimer()
	var h uint64
	for i := 0; i < b.N; i++ {
		h ^= cm.StaticHash(regions...)
	}
	sink = h
}

var sink uint64
