package bench

import (
	"fmt"

	"repro/internal/pool"
	"repro/internal/region"
)

// RegionSuite is table S4: the same seeded mixed workload driven over
// pools of EQUAL TOTAL FABRIC organized at different region
// granularities.
//
// Two comparisons share the table:
//
//   - 4×1-region vs 2×2-region at identical region geometry (four
//     half-width areas, on four single-region boards or two dual-region
//     boards). Under the slot scheduler these pools are isomorphic — the
//     committed rows are byte-identical — so the dual-region pool matches
//     the four-board pool's entire configuration economy on HALF the
//     hardware: per board, throughput doubles.
//
//   - 2×1-full vs 2×2-split on the SAME two boards: the paper's full-width
//     dynamic area used as one region versus column-split into two
//     independently reconfigurable halves. Same fabric budget, twice the
//     residents: the split pool converts module-width slack into extra
//     bitstream-cache entries and cuts visible configuration time — the
//     floorplanning win multi-region fabrics exist for.
//
// The two-board shapes then run again with the markov-guided speculative
// pipeline (a dual-region board speculates into one region while the
// sibling holds — or serves — the working set). Every row is Paced under
// mincost placement, so the CI gate holds them tight.
func RegionSuite(w Workload) (Suite, error) {
	fp, err := region.Default(true, 2)
	if err != nil {
		return Suite{}, err
	}
	// Four single-region boards carrying the dual floorplan's first
	// half-area, two dual-region boards carrying both halves, and two
	// boards with the paper's full-width single region (the fabric budget
	// the split carves up).
	var single, dual pool.Config
	half := region.Floorplan{Name: "half64", Areas: fp.Areas[:1]}
	for i := 0; i < 4; i++ {
		single.Members = append(single.Members, pool.MemberSpec{Is64: true, Floorplan: half})
	}
	for i := 0; i < 2; i++ {
		dual.Members = append(dual.Members, pool.MemberSpec{Is64: true, Floorplan: fp})
	}
	full := pool.Config{Sys64: 2}
	c := func(label string, cfg pool.Config, predictor string) Case {
		return Case{Label: label, Pool: cfg, Policy: "mincost", Predictor: predictor, Drive: Paced}
	}
	return Suite{
		ID:       "S4",
		Title:    "Region granularity at equal total fabric on the paced seeded workload",
		Columns:  []string{"configuration", "boards", "slots", "hits", "misses", "pf hits", "config time", "hidden config", "bytes streamed"},
		Workload: w,
		Cases: []Case{
			c("4x1-half+mincost", single, ""),
			c("2x2-half+mincost", dual, ""),
			c("2x1-full+mincost", full, ""),
			c("2x1-full+prefetch-markov", full, "markov"),
			c("2x2-half+prefetch-markov", dual, "markov"),
		},
		cells: func(r Run) []string {
			st := r.Stats
			return []string{r.Label, fmt.Sprint(r.Boards), fmt.Sprint(r.Slots),
				fmt.Sprint(st.Hits), fmt.Sprint(st.Misses), fmt.Sprint(st.PrefetchHits),
				fmtNS(float64(st.Config)), fmtNS(float64(st.HiddenConfig)),
				fmt.Sprintf("%d B", st.BytesStreamed)}
		},
		notes: func(runs []Run) []string {
			var notes []string
			if len(runs) >= 3 {
				a, b, f := runs[0].Stats, runs[1].Stats, runs[2].Stats
				if a.Config > 0 && b.Config > 0 {
					notes = append(notes, fmt.Sprintf(
						"%s matches %s (%v vs %v visible config) on half the boards: equal slots are equal economics, so per-board throughput doubles",
						runs[1].Label, runs[0].Label, b.Config, a.Config))
				}
				if f.Config > 0 {
					notes = append(notes, fmt.Sprintf(
						"%s vs %s on the SAME two boards: splitting the area halves visible config time (%v vs %v) by doubling residents (%d vs %d hits)",
						runs[1].Label, runs[2].Label, b.Config, f.Config, b.Hits, f.Hits))
				}
			}
			return append(notes,
				"equal fabric: the half-width regions are the paper's 64-bit dynamic area column-split in two; the full rows use it whole",
				"a dual-region board holds two residents behind separate docks and pays no ICAP traffic when the sibling's neighbour is requested")
		},
	}, nil
}
