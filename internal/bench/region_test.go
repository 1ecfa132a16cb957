package bench

import (
	"strings"
	"testing"
)

// testRegionSuite is a reduced S4 suite so the acceptance relations are
// asserted in test time; `make bench` commits the full rows.
func testRegionSuite(t *testing.T) Suite {
	t.Helper()
	w := DefaultWorkload()
	w.N = 36
	s, err := RegionSuite(w)
	if err != nil {
		t.Fatal(err)
	}
	// The three no-prefetch pool shapes: 4x1-half, 2x2-half, 2x1-full.
	s.Cases = s.Cases[:3]
	return s
}

// TestRegionGranularityEconomics asserts the two S4 claims on a reduced
// workload: (1) the 2×2-region pool matches the 4×1-region pool exactly at
// equal fabric — equal slots are equal configuration economics, on half
// the boards — and (2) against the SAME fabric organized as full-width
// single regions, the split pool strictly reduces visible configuration
// time by holding twice the residents.
func TestRegionGranularityEconomics(t *testing.T) {
	runs, err := testRegionSuite(t).Run()
	if err != nil {
		t.Fatal(err)
	}
	r41, r22, r21 := runs[0], runs[1], runs[2]
	if r41.Slots != 4 || r22.Slots != 4 || r21.Slots != 2 {
		t.Fatalf("slot counts (%d, %d, %d), want (4, 4, 2)", r41.Slots, r22.Slots, r21.Slots)
	}
	if r22.Boards*2 != r41.Boards {
		t.Fatalf("boards (%d, %d), want the dual pool on half the boards", r41.Boards, r22.Boards)
	}
	// Parity: the slot scheduler makes equal slot sets isomorphic, so the
	// dual-region pool reproduces the four-board pool bit for bit.
	a, b := r41.Stats, r22.Stats
	if a.Config != b.Config || a.BytesStreamed != b.BytesStreamed || a.Hits != b.Hits {
		t.Errorf("2x2 (config %v, %d B, %d hits) != 4x1 (config %v, %d B, %d hits): equal fabric should give equal economics",
			b.Config, b.BytesStreamed, b.Hits, a.Config, a.BytesStreamed, a.Hits)
	}
	// Granularity: same boards, same fabric, twice the regions — visible
	// configuration time must drop by a clear margin.
	f := r21.Stats
	if float64(b.Config) > 0.8*float64(f.Config) {
		t.Errorf("split pool visible config %v is not clearly below full-width %v", b.Config, f.Config)
	}
	if b.Hits <= f.Hits {
		t.Errorf("split pool hits %d not above full-width %d", b.Hits, f.Hits)
	}
	if b.BytesStreamed >= f.BytesStreamed {
		t.Errorf("split pool streamed %d B, full-width %d B: doubling residents should stream less", b.BytesStreamed, f.BytesStreamed)
	}
}

// TestRegionTableShape: the S4 table shows each pool's boards and slots
// and carries the parity and granularity notes.
func TestRegionTableShape(t *testing.T) {
	s := testRegionSuite(t)
	runs, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	tb := s.Table(runs)
	for i, want := range [][2]string{{"4", "4"}, {"2", "4"}, {"2", "2"}} {
		if got := [2]string{tb.Rows[i][1], tb.Rows[i][2]}; got != want {
			t.Errorf("%s: boards/slots %v, want %v", runs[i].Label, got, want)
		}
	}
	notes := strings.Join(tb.Notes, "\n")
	for _, want := range []string{"2x2-half+mincost matches 4x1-half+mincost", "on the SAME two boards"} {
		if !strings.Contains(notes, want) {
			t.Errorf("notes missing %q:\n%s", want, notes)
		}
	}
}
