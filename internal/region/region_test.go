package region

import (
	"testing"

	"repro/internal/busmacro"
	"repro/internal/fabric"
)

func TestPaperFloorplansValidate(t *testing.T) {
	if err := Single32().Validate(fabric.XC2VP7()); err != nil {
		t.Fatalf("single32: %v", err)
	}
	if err := Single64().Validate(fabric.XC2VP30()); err != nil {
		t.Fatalf("single64: %v", err)
	}
}

// TestSplitIdentity: n = 1 must return the paper area untouched, so every
// single-region configuration keeps its exact pre-multi-region geometry
// (and therefore byte-identical streams).
func TestSplitIdentity(t *testing.T) {
	for _, is64 := range []bool{false, true} {
		fp, err := Default(is64, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := Single32().Areas[0].R
		if is64 {
			want = Single64().Areas[0].R
		}
		if len(fp.Areas) != 1 || fp.Areas[0].R != want {
			t.Fatalf("is64=%v: split(1) = %+v, want %+v", is64, fp.Areas, want)
		}
	}
}

// TestSplitGeometry: the dual floorplans must produce equal-width,
// column-disjoint areas inside the base band, every dock column static.
func TestSplitGeometry(t *testing.T) {
	for _, tc := range []struct {
		is64  bool
		dev   *fabric.Device
		n     int
		wantW int
	}{
		{false, fabric.XC2VP7(), 2, 13},
		{true, fabric.XC2VP30(), 2, 15},
		{true, fabric.XC2VP30(), 3, 10},
	} {
		fp, err := Default(tc.is64, tc.n)
		if err != nil {
			t.Fatalf("is64=%v n=%d: %v", tc.is64, tc.n, err)
		}
		if len(fp.Areas) != tc.n {
			t.Fatalf("is64=%v: got %d areas, want %d", tc.is64, len(fp.Areas), tc.n)
		}
		base := Single32().Areas[0].R
		if tc.is64 {
			base = Single64().Areas[0].R
		}
		for i, a := range fp.Areas {
			if a.R.W != tc.wantW {
				t.Errorf("is64=%v n=%d area %d: width %d, want %d", tc.is64, tc.n, i, a.R.W, tc.wantW)
			}
			if a.R.Row0 != base.Row0 || a.R.H != base.H {
				t.Errorf("area %d: band rows[%d,%d), want the base band rows[%d,%d)",
					i, a.R.Row0, a.R.Row0+a.R.H, base.Row0, base.Row0+base.H)
			}
			if a.R.Col0 < base.Col0 || a.R.Col0+a.R.W > base.Col0+base.W {
				t.Errorf("area %d: cols[%d,%d) escape the base area cols[%d,%d)",
					i, a.R.Col0, a.R.Col0+a.R.W, base.Col0, base.Col0+base.W)
			}
		}
		if err := fp.Validate(tc.dev); err != nil {
			t.Errorf("is64=%v n=%d: validate: %v", tc.is64, tc.n, err)
		}
	}
}

// TestValidateRejectsSharedColumns: regions sharing a CLB column share
// full-height frames — the inter-region §2.2 hazard Validate must refuse.
func TestValidateRejectsSharedColumns(t *testing.T) {
	dev := fabric.XC2VP30()
	a := fabric.Region{Name: "a", Col0: 5, Row0: 14, W: 16, H: 24}
	b := fabric.Region{Name: "b", Col0: 20, Row0: 44, W: 16, H: 24} // col 20 in both
	fp := Floorplan{Name: "overlap", Areas: []Area{
		{R: a, Macro: busmacro.Dock64()},
		{R: b, Macro: busmacro.Dock64()},
	}}
	if err := fp.Validate(dev); err == nil {
		t.Fatal("floorplan with a shared CLB column validated")
	}
}

// TestValidateRejectsDockInsideSibling: a bus macro's static-side column
// must not be another area's dynamic fabric.
func TestValidateRejectsDockInsideSibling(t *testing.T) {
	dev := fabric.XC2VP30()
	a := fabric.Region{Name: "a", Col0: 5, Row0: 14, W: 16, H: 24}  // dock col 21
	b := fabric.Region{Name: "b", Col0: 21, Row0: 14, W: 10, H: 24} // owns col 21
	fp := Floorplan{Name: "dockclash", Areas: []Area{
		{R: a, Macro: busmacro.Dock64()},
		{R: b, Macro: busmacro.Dock64()},
	}}
	if err := fp.Validate(dev); err == nil {
		t.Fatal("floorplan with a dock column inside a sibling area validated")
	}
}

// TestSpansDisjoint: the ICAP stream addressing of split areas must never
// intersect — the frame-level statement of column disjointness.
func TestSpansDisjoint(t *testing.T) {
	for _, tc := range []struct {
		is64 bool
		dev  *fabric.Device
		n    int
	}{
		{false, fabric.XC2VP7(), 2},
		{true, fabric.XC2VP30(), 2},
		{true, fabric.XC2VP30(), 3},
	} {
		fp, err := Default(tc.is64, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		owner := make(map[int]int)
		for i, a := range fp.Areas {
			for _, sp := range tc.dev.Frames(a.R) {
				if sp.Len() <= 0 {
					t.Fatalf("area %d: empty span %+v", i, sp)
				}
				for f := sp.Lo; f < sp.Hi; f++ {
					if prev, taken := owner[f]; taken {
						t.Fatalf("frame %d owned by areas %d and %d", f, prev, i)
					}
					owner[f] = i
				}
			}
		}
	}
}

// TestSpansMatchRegionGeometry: a region's CLB span counts exactly
// W*FramesPerCLBColumn frames starting at its first column, and each
// enclosed BRAM column adds one run of its content frames.
func TestSpansMatchRegionGeometry(t *testing.T) {
	dev := fabric.XC2VP30()
	r := fabric.DynamicRegion64()
	spans := dev.Frames(r)
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	clb := spans[0]
	if clb.Len() != r.W*fabric.FramesPerCLBColumn {
		t.Fatalf("CLB span %d frames, want %d", clb.Len(), r.W*fabric.FramesPerCLBColumn)
	}
	wantLo, _ := dev.FrameIndex(fabric.FAR{Block: fabric.BlockCLB, Major: r.Col0})
	if clb.Lo != wantLo {
		t.Fatalf("CLB span starts at frame %d, want %d", clb.Lo, wantLo)
	}
	bcols := dev.BRAMColumns(r)
	if got, want := len(spans)-1, len(bcols); got != want {
		t.Fatalf("%d BRAM spans, want %d", got, want)
	}
	for i, b := range bcols {
		lo, _ := dev.FrameIndex(fabric.FAR{Block: fabric.BlockBRAM, Major: b})
		if sp := spans[1+i]; sp.Lo != lo || sp.Len() != fabric.FramesPerBRAMColumn {
			t.Fatalf("BRAM span %d is %+v, want %d frames from frame %d", i, sp, fabric.FramesPerBRAMColumn, lo)
		}
	}
}

func TestSplitTooNarrow(t *testing.T) {
	if _, err := Default(false, 20); err == nil {
		t.Fatal("splitting the 28-column area into 20 docked regions validated")
	}
}
