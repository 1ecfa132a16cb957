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
	cm.Guard(r)
	h0 := cm.RegionHash(r)

	// Writing a frame word inside the region band changes the region hash
	// but does not disturb the static design.
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
	if cm.Disturbed() {
		t.Error("in-region write disturbed the static design")
	}

	// Writing above the band (same column) disturbs the static design but
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
	if !cm.Disturbed() {
		t.Error("out-of-band write left the static design undisturbed")
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

// An overlay reads as the memory it was made from, and its writes and
// flips, first and later ones, stay its own: the source, a clone of the
// overlay and the overlay's own hash, stamps and guard all see only what
// was done to each.
func TestOverlayCopiesOnWrite(t *testing.T) {
	d, r := XC2VP30(), DynamicRegion64()
	rng := rand.New(rand.NewSource(3))
	cm := NewConfigMemory(d)
	frame := make([]uint32, d.FrameLen())
	for i := range d.NumFrames() {
		for w := range frame {
			frame[w] = rng.Uint32()
		}
		far, _ := d.FARAt(i)
		if err := cm.WriteFrame(far, frame); err != nil {
			t.Fatal(err)
		}
	}
	same := func(a, b *ConfigMemory) bool {
		for i := range d.NumFrames() {
			far, _ := d.FARAt(i)
			fa, _ := a.ReadFrame(far)
			fb, _ := b.ReadFrame(far)
			if !slices.Equal(fa, fb) {
				return false
			}
		}
		return true
	}
	src := cm.Clone()
	ov := cm.Overlay()
	if !same(ov, cm) || ov.RegionHash(r) != cm.RegionHash(r) || ov.FrameWrites() != cm.FrameWrites() {
		t.Fatal("a fresh overlay does not read as its source")
	}
	if ov.Guarded() || ov.Epoch() != 0 {
		t.Fatalf("a fresh overlay carries state: Guarded = %v, Epoch = %d", ov.Guarded(), ov.Epoch())
	}
	lo, _ := d.RowWordRange(r.Row0, r.H)
	band := d.Frames(r)[0].Lo // a frame whose band the region owns
	bandFAR, _ := d.FARAt(band)
	other, _ := d.FARAt(band + 1)
	want, _ := ov.ReadFrame(bandFAR)
	want[lo]++
	if err := ov.WriteFrame(bandFAR, want); err != nil {
		t.Fatal(err)
	}
	if err := ov.FlipBit(other, lo, 3); err != nil {
		t.Fatal(err)
	}
	clone := ov.Clone()
	want[lo]++ // a second write and flip land on frames the overlay owns
	if err := ov.WriteFrame(bandFAR, want); err != nil {
		t.Fatal(err)
	}
	if err := ov.FlipBit(other, lo+1, 0); err != nil {
		t.Fatal(err)
	}
	if !same(cm, src) {
		t.Fatal("writes and flips to the overlay changed its source")
	}
	if got, _ := ov.ReadFrame(bandFAR); !slices.Equal(got, want) {
		t.Error("the overlay does not read its own write")
	}
	have, _ := cm.ReadFrame(other)
	got, _ := ov.ReadFrame(other)
	have[lo] ^= 1 << 3
	have[lo+1] ^= 1
	if !slices.Equal(got, have) {
		t.Error("the overlay does not read its own flips")
	}
	if got, _ := clone.ReadFrame(bandFAR); got[lo] != want[lo]-1 {
		t.Errorf("a clone of the overlay follows the overlay's later write: word %#x, want %#x", got[lo], want[lo]-1)
	}
	if ov.RegionHash(r) == cm.RegionHash(r) {
		t.Error("the overlay's band changed but its region hash did not")
	}
	if !ov.ChangedSince(band, band+2, 0) || ov.ChangedSince(band+2, d.NumFrames(), 0) || ov.Epoch() != 4 {
		t.Errorf("overlay stamps: Epoch = %d, want 4 on frames %d and %d only", ov.Epoch(), band, band+1)
	}
	// A guard on an overlay checks a write against the shared frame it
	// replaces and a flip against the shared word: a static word changed
	// on a frame the overlay still shares disturbs it, the overlay reads
	// its change and the source keeps its frame.
	staticFAR := FAR{Block: BlockCLB, Major: 0, Minor: 0} // outside the region
	for _, change := range []struct {
		name  string
		apply func(g *ConfigMemory, want []uint32) error
	}{
		{"write", func(g *ConfigMemory, want []uint32) error {
			want[0]++
			return g.WriteFrame(staticFAR, want)
		}},
		{"flip", func(g *ConfigMemory, want []uint32) error {
			want[0] ^= 1 << 5
			return g.FlipBit(staticFAR, 0, 5)
		}},
	} {
		g := cm.Overlay()
		g.Guard(r)
		if g.Disturbed() {
			t.Fatalf("guarded overlay (%s): disturbed before any change", change.name)
		}
		want, _ := cm.ReadFrame(staticFAR)
		if err := change.apply(g, want); err != nil {
			t.Fatal(err)
		}
		if !g.Disturbed() {
			t.Errorf("guarded overlay: a static %s to a shared frame did not disturb it", change.name)
		}
		if got, _ := g.ReadFrame(staticFAR); !slices.Equal(got, want) {
			t.Errorf("guarded overlay: it does not read its own static %s", change.name)
		}
		if !same(cm, src) {
			t.Errorf("guarded overlay: a static %s changed the source", change.name)
		}
	}
}

// Property: the region hash is a pure function of the region's bits — random
// writes confined to the region band never disturb the static design, and
// restoring the region's frames restores its hash.
func TestRegionHashProperty(t *testing.T) {
	d := XC2VP7()
	r := DynamicRegion32()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cm := NewConfigMemory(d)
		cm.Guard(r)
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
		if cm.Disturbed() {
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

// TestRegionHashSeesEverySingleWordChange: each FNV-1a step folds one
// whole word and is a bijection of the state, so changing any single word
// of a region's band — in a CLB or a BRAM frame, by one bit or by many —
// changes RegionHash. The first and last band word of every region frame
// are checked, and a fixed-seed sample of the words between.
func TestRegionHashSeesEverySingleWordChange(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, c := range []struct {
		d *Device
		r Region
	}{{XC2VP7(), DynamicRegion32()}, {XC2VP30(), DynamicRegion64B()}} {
		cm := NewConfigMemory(c.d)
		for _, f := range cm.frames {
			for i := range f {
				f[i] = rng.Uint32()
			}
		}
		var frames []int
		for col := c.r.Col0; col < c.r.Col0+c.r.W; col++ {
			for minor := range FramesPerCLBColumn {
				i, _ := c.d.FrameIndex(FAR{Block: BlockCLB, Major: col, Minor: minor})
				frames = append(frames, i)
			}
		}
		for _, bcol := range c.d.BRAMColumns(c.r) {
			for minor := range FramesPerBRAMColumn {
				i, _ := c.d.FrameIndex(FAR{Block: BlockBRAM, Major: bcol, Minor: minor})
				frames = append(frames, i)
			}
		}
		lo, hi := c.d.RowWordRange(c.r.Row0, c.r.H)
		h0 := cm.RegionHash(c.r)
		change := func(fi, wi int, delta uint32) {
			cm.frames[fi][wi] ^= delta
			if cm.RegionHash(c.r) == h0 {
				t.Fatalf("%s: word %d of frame %d ^= %#08x left the region hash unchanged", c.r.Name, wi, fi, delta)
			}
			cm.frames[fi][wi] ^= delta
		}
		for _, fi := range frames {
			change(fi, lo, 1<<uint(rng.Intn(32)))
			change(fi, hi-1, rng.Uint32()|1)
		}
		for range 200 {
			change(frames[rng.Intn(len(frames))], lo+rng.Intn(hi-lo), rng.Uint32()|1<<uint(rng.Intn(32)))
		}
		if cm.RegionHash(c.r) != h0 {
			t.Fatalf("%s: restoring every changed word did not restore the hash", c.r.Name)
		}
	}
}

// TestChangedSinceTracksWritesAndFlips: a frame write or a bit flip stamps
// exactly the frame it touches, and a write counts even when it stores the
// frame's old content.
func TestChangedSinceTracksWritesAndFlips(t *testing.T) {
	d := XC2VP7()
	cm := NewConfigMemory(d)
	far := FAR{Block: BlockCLB, Major: 9, Minor: 4}
	fi, _ := d.FrameIndex(far)
	e := cm.Epoch()
	if cm.ChangedSince(0, d.NumFrames(), e) {
		t.Fatal("a fresh memory reports a change")
	}
	check := func(what string) {
		t.Helper()
		if !cm.ChangedSince(fi, fi+1, e) {
			t.Fatalf("%s: frame %d not stamped", what, fi)
		}
		if cm.ChangedSince(0, fi, e) || cm.ChangedSince(fi+1, d.NumFrames(), e) {
			t.Fatalf("%s stamped a frame it did not touch", what)
		}
		e = cm.Epoch()
	}
	if err := cm.WriteFrame(far, make([]uint32, d.FrameLen())); err != nil {
		t.Fatal(err)
	}
	check("an unchanged frame write")
	if err := cm.FlipBit(far, 5, 3); err != nil {
		t.Fatal(err)
	}
	check("a bit flip")
}

// TestRegionHasherMatchesRead: a hasher's Hash, which rehashes only the
// frames stamped since its last look, equals a full Read and RegionHash
// after every step of a seeded mix of frame writes (band changes,
// band-identical rewrites and static-only changes, in the region's span,
// a sibling's span and static frames) and bit flips inside and outside
// the bands, with Hash called at random points. Once made, each region's
// incremental hasher never reads in full, so stale frame hashes would
// accumulate. A third hasher per region calls Hash or Read at random, and
// at some steps reads, flips a band bit, hashes, flips it back and reads:
// Read rehashes only the frames whose band differs from the words their
// hash was taken from, so a Hash that did not refresh that snapshot would
// leave the flipped frame's hash standing. A hasher that never reads
// carries no snapshot. A hasher made on a Clone, whose frames carry no
// stamps, starts from the content.
func TestRegionHasherMatchesRead(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, c := range []struct {
		d       *Device
		regions []Region
	}{
		{XC2VP7(), []Region{DynamicRegion32()}},
		{XC2VP30(), []Region{DynamicRegion64(), DynamicRegion64B()}},
	} {
		d := c.d
		cm := NewConfigMemory(d)
		for _, f := range cm.frames {
			for i := range f {
				f[i] = rng.Uint32()
			}
		}
		cm.Guard(c.regions...)
		var hashers, readers, mixed []*RegionHasher
		spans := make([][]int, len(c.regions))
		inSpan := make([]bool, d.NumFrames())
		for ri, r := range c.regions {
			hashers = append(hashers, cm.Hasher(r))
			readers = append(readers, cm.Hasher(r))
			mixed = append(mixed, cm.Hasher(r))
			for _, run := range d.Frames(r) {
				for fi := run.Lo; fi < run.Hi; fi++ {
					spans[ri] = append(spans[ri], fi)
					inSpan[fi] = true
				}
			}
		}
		var static []int
		for fi, in := range inSpan {
			if !in {
				static = append(static, fi)
			}
		}
		check := func(step int) {
			t.Helper()
			for ri, r := range c.regions {
				want := cm.RegionHash(r)
				if got := hashers[ri].Hash(); got != want {
					t.Fatalf("%s step %d: %s Hash = %#x, RegionHash %#x", d.Name, step, r.Name, got, want)
				}
				if got := readers[ri].Read(); got != want {
					t.Fatalf("%s step %d: %s Read = %#x, RegionHash %#x", d.Name, step, r.Name, got, want)
				}
				look, got := "Hash", uint64(0)
				if rng.Intn(2) == 0 {
					got = mixed[ri].Hash()
				} else {
					look, got = "Read", mixed[ri].Read()
				}
				if got != want {
					t.Fatalf("%s step %d: %s mixed %s = %#x, RegionHash %#x", d.Name, step, r.Name, look, got, want)
				}
			}
		}
		// look checks the mixed hasher's Read, or its Hash, against
		// RegionHash.
		look := func(step, ri int, read bool) {
			t.Helper()
			var got uint64
			name := "Read"
			if read {
				got = mixed[ri].Read()
			} else {
				got, name = mixed[ri].Hash(), "Hash"
			}
			want := cm.RegionHash(c.regions[ri])
			if got != want {
				t.Fatalf("%s step %d: %s %s around a flip and back = %#x, RegionHash %#x", d.Name, step, c.regions[ri].Name, name, got, want)
			}
		}
		for step := range 2000 {
			// A frame of a random region's span (the region, or its
			// sibling's from the other region's view) or a static frame,
			// and that region's band.
			ri := rng.Intn(len(c.regions))
			fi := spans[ri][rng.Intn(len(spans[ri]))]
			if rng.Intn(4) == 0 {
				fi = static[rng.Intn(len(static))]
			}
			lo, hi := d.RowWordRange(c.regions[ri].Row0, c.regions[ri].H)
			outside := rng.Intn(d.FrameLen() - (hi - lo))
			if outside >= lo {
				outside += hi - lo
			}
			far, _ := d.FARAt(fi)
			frame, _ := cm.ReadFrame(far)
			kind := []string{"write band", "rewrite unchanged", "write outside band", "flip in band", "flip outside band", "hash", "flip and back"}[rng.Intn(7)]
			var err error
			switch kind {
			case "write band":
				frame[lo+rng.Intn(hi-lo)] ^= 1 << uint(rng.Intn(32))
				err = cm.WriteFrame(far, frame)
			case "rewrite unchanged":
				err = cm.WriteFrame(far, frame)
			case "write outside band":
				frame[outside] = rng.Uint32()
				err = cm.WriteFrame(far, frame)
			case "flip in band":
				err = cm.FlipBit(far, lo+rng.Intn(hi-lo), uint(rng.Intn(32)))
			case "flip outside band":
				err = cm.FlipBit(far, outside, uint(rng.Intn(32)))
			case "hash":
				check(step)
			case "flip and back":
				word, bit := lo+rng.Intn(hi-lo), uint(rng.Intn(32))
				first := rng.Intn(2) == 0
				look(step, ri, first)
				if err = cm.FlipBit(far, word, bit); err == nil {
					look(step, ri, !first)
					err = cm.FlipBit(far, word, bit)
				}
				look(step, ri, first)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		check(2000)
		for ri := range c.regions {
			if hashers[ri].snap != nil || readers[ri].snap == nil {
				t.Fatalf("%s: a hasher that never read carries a snapshot (%v), or one that read carries none (%v)",
					d.Name, hashers[ri].snap != nil, readers[ri].snap == nil)
			}
		}

		clone := cm.Clone()
		for ri, r := range c.regions {
			rh := clone.Hasher(r)
			if got, want := rh.Hash(), clone.RegionHash(r); got != want {
				t.Fatalf("%s: a hasher made on a clone hashes %s as %#x, RegionHash %#x", d.Name, r.Name, got, want)
			}
			far, _ := d.FARAt(spans[ri][rng.Intn(len(spans[ri]))])
			lo, _ := d.RowWordRange(r.Row0, r.H)
			if err := clone.FlipBit(far, lo, 0); err != nil {
				t.Fatal(err)
			}
			if got, want := rh.Hash(), clone.RegionHash(r); got != want {
				t.Fatalf("%s: after a flip in a clone, %s Hash = %#x, RegionHash %#x", d.Name, r.Name, got, want)
			}
		}
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
	cm.Guard(a, b)
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
	// The static design outside both regions is undisturbed.
	if cm.Disturbed() {
		t.Error("write in region B disturbed the static design (excluding both regions)")
	}
}

// staticHashPerWord hashes every frame word no region owns, asking of each
// word whether a region owns it: the reference the guard is checked
// against.
func staticHashPerWord(cm *ConfigMemory, regions ...Region) uint64 {
	h := uint64(fnvOffset)
	for col := 0; col < cm.dev.Cols; col++ {
		for minor := 0; minor < FramesPerCLBColumn; minor++ {
			f := frameAt(cm, FAR{Block: BlockCLB, Major: col, Minor: minor})
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
			f := frameAt(cm, FAR{Block: BlockBRAM, Major: bcol, Minor: minor})
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

// frameAt returns the live frame at far.
func frameAt(cm *ConfigMemory, far FAR) []uint32 {
	i, err := cm.dev.FrameIndex(far)
	if err != nil {
		panic(err)
	}
	return cm.frames[i]
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

// Disturbed is true exactly when the per-word reference hash of the static
// design has changed since Guard, under random frame writes (changing a
// word, or rewriting the frame unchanged) and bit flips aimed both inside
// and outside the bands and on their edges, on random frame contents of
// both devices; and a flip at any band edge of any column disturbs exactly
// when the reference leaves the word static. The region sets are the ones
// the system uses plus the edge cases: none, the whole device, overlapping
// regions, and two regions stacked in the same columns with a static gap
// between their bands.
func TestGuardMatchesPerWordReference(t *testing.T) {
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
	const ops = 5
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		d := c.dev
		cm := NewConfigMemory(d)
		for _, f := range cm.frames {
			for i := range f {
				f[i] = rng.Uint32()
			}
		}
		// target picks a frame (anywhere, in a random region's columns, or
		// in a random BRAM column: enclosed, touched from one side, or
		// apart), a row band (a random region's, or the whole frame) and a
		// word (inside the band, or on either side of its edges).
		target := func() (far FAR, wi, lo, hi int) {
			far, _ = d.FARAt(rng.Intn(d.NumFrames()))
			lo, hi = 0, d.FrameLen()
			if len(c.regions) == 0 {
				return far, rng.Intn(hi), lo, hi
			}
			r := c.regions[rng.Intn(len(c.regions))]
			switch rng.Intn(3) {
			case 0:
				far = FAR{Block: BlockCLB, Major: r.Col0 + rng.Intn(r.W), Minor: rng.Intn(FramesPerCLBColumn)}
			case 1:
				far = FAR{Block: BlockBRAM, Major: rng.Intn(len(d.BRAMColPos)), Minor: rng.Intn(FramesPerBRAMColumn)}
			}
			if rng.Intn(3) > 0 {
				lo, hi = d.RowWordRange(r.Row0, r.H)
			}
			wi = []int{lo + rng.Intn(hi-lo), lo - 1, lo, hi - 1, hi}[rng.Intn(5)]
			return far, min(max(wi, 0), d.FrameLen()-1), lo, hi
		}
		cm.Guard(c.regions...)
		ref := staticHashPerWord(cm, c.regions...)
		for op := 0; op < ops; op++ {
			far, wi, lo, hi := target()
			frame, err := cm.ReadFrame(far)
			if err != nil {
				t.Fatal(err)
			}
			kind := []string{"flip", "write word", "rewrite unchanged", "write band"}[rng.Intn(4)]
			switch kind {
			case "flip":
				err = cm.FlipBit(far, wi, uint(rng.Intn(32)))
			case "write word":
				frame[wi] = rng.Uint32()
			case "write band":
				for i := lo; i < hi; i++ {
					frame[i] = rng.Uint32()
				}
			}
			if kind != "flip" {
				err = cm.WriteFrame(far, frame)
			}
			if err != nil {
				t.Fatal(err)
			}
			changed := staticHashPerWord(cm, c.regions...) != ref
			if cm.Disturbed() != changed {
				t.Fatalf("%s %v op %d (%s at %v word %d, band [%d,%d)): Disturbed = %v, reference hash changed = %v",
					d.Name, c.regions, op, kind, far, wi, lo, hi, cm.Disturbed(), changed)
			}
			if changed {
				// The flag is sticky: re-guard for a fresh watch.
				cm.Guard(c.regions...)
				ref = staticHashPerWord(cm, c.regions...)
			}
		}
		// Every column, at the frame ends and every region's band edges:
		// a flip disturbs exactly the words the reference leaves static.
		edges := []int{0, d.FrameLen() - 1}
		for _, r := range c.regions {
			lo, hi := d.RowWordRange(r.Row0, r.H)
			edges = append(edges, lo-1, lo, hi-1, min(hi, d.FrameLen()-1))
		}
		for _, b := range []BlockType{BlockCLB, BlockBRAM} {
			for major := 0; major < d.MajorCount(b); major++ {
				far := FAR{Block: b, Major: major}
				for _, wi := range edges {
					cm.Guard(c.regions...)
					if err := cm.FlipBit(far, wi, 0); err != nil {
						t.Fatal(err)
					}
					if static := !wordInRegions(d, c.regions, major, wi, b == BlockBRAM, major); cm.Disturbed() != static {
						t.Fatalf("%s %v: flip at %v word %d: Disturbed = %v, static per reference = %v",
							d.Name, c.regions, far, wi, cm.Disturbed(), static)
					}
				}
			}
		}
	}
}

// A clone copies the frames but not the guard: writes to it disturb
// nothing, and the original's flag is its own.
func TestCloneCarriesNoGuard(t *testing.T) {
	d := XC2VP7()
	r := DynamicRegion32()
	cm := NewConfigMemory(d)
	cm.Guard(r)
	if !cm.Guarded() {
		t.Fatal("Guard left the memory unguarded")
	}
	far := FAR{Block: BlockCLB, Major: 0, Minor: 0}
	if err := cm.FlipBit(far, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !cm.Disturbed() {
		t.Fatal("flip of a static bit did not disturb the guarded memory")
	}
	clone := cm.Clone()
	if clone.Guarded() || clone.Disturbed() {
		t.Fatalf("clone carries a guard: Guarded = %v, Disturbed = %v", clone.Guarded(), clone.Disturbed())
	}
	if err := clone.FlipBit(far, 1, 0); err != nil {
		t.Fatal(err)
	}
	if clone.Disturbed() {
		t.Error("unguarded clone reports a disturbance")
	}
}

// BenchmarkRegionHash times the region hash of XC2VP30's dynamic64 (1024
// frames of 72 band words) per band word of the region: read rehashes
// every band word, as a scrub does; rebind writes one band word of one
// region frame and hashes the region again, as a rebind after a one-frame
// stream does.
func BenchmarkRegionHash(b *testing.B) {
	d, r := XC2VP30(), DynamicRegion64()
	cm := NewConfigMemory(d)
	rng := rand.New(rand.NewSource(1))
	for _, f := range cm.frames {
		for i := range f {
			f[i] = rng.Uint32()
		}
	}
	rh := cm.Hasher(r)
	lo, hi := d.RowWordRange(r.Row0, r.H)
	words := len(rh.sums) * (hi - lo)
	far := FAR{Block: BlockCLB, Major: r.Col0, Minor: 0}
	frame, err := cm.ReadFrame(far)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		hash func(i int) uint64
	}{
		{"read", func(int) uint64 { return rh.Read() }},
		{"rebind", func(i int) uint64 {
			frame[lo] = uint32(i)
			if err := cm.WriteFrame(far, frame); err != nil {
				b.Fatal(err)
			}
			return rh.Hash()
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hashSink = c.hash(i)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*words), "ns/band-word")
		})
	}
}

var hashSink uint64
