package bench

import (
	"fmt"

	"repro/internal/pool"
)

// PlacementSuite is table S2: how the differential-bitstream planner and
// cost-aware placement change the configuration bill for the same seeded
// workload over a 2+2 pool — the PR 1 baseline (lru placement, complete
// streams only), the planner under the same placement, and the planner
// with cost-aware placement. The drive is concurrent, so placement
// follows goroutine completion order: rows carry a 40% tolerance band,
// still far inside the 5x planner-vs-complete signal they guard, yet
// bytes_streamed has read up to +84.8% over the baseline (see
// Row.TolerancePct).
func PlacementSuite(w Workload) Suite {
	cfg := pool.Config{Sys32: 2, Sys64: 2}
	return Suite{
		ID:        "S2",
		Title:     "Placement policy and stream planning on the same seeded workload",
		Columns:   []string{"configuration", "hits", "misses", "diff", "complete", "config time", "bytes streamed", "busy time"},
		Workload:  w,
		Tolerance: 40,
		Cases: []Case{
			{Label: "lru+complete-only", Pool: cfg, Policy: "lru", CompleteOnly: true},
			{Label: "lru+planner", Pool: cfg, Policy: "lru"},
			{Label: "mincost+planner", Pool: cfg, Policy: "mincost"},
		},
		cells: func(r Run) []string {
			st := r.Stats
			var busy float64
			for _, b := range st.BusyTime {
				busy += float64(b)
			}
			return []string{r.Label,
				fmt.Sprint(st.Hits), fmt.Sprint(st.Misses),
				fmt.Sprint(st.DiffLoads), fmt.Sprint(st.CompleteLoads),
				fmtNS(float64(st.Config)), fmt.Sprintf("%d B", st.BytesStreamed), fmtNS(busy)}
		},
		notes: func(runs []Run) []string {
			var notes []string
			if len(runs) > 1 {
				base, best := runs[0].Stats, runs[len(runs)-1].Stats
				if best.Config > 0 && best.BytesStreamed > 0 {
					notes = append(notes, fmt.Sprintf(
						"%s vs %s: %.1fx less simulated configuration time, %.1fx fewer bytes streamed",
						runs[len(runs)-1].Label, runs[0].Label,
						float64(base.Config)/float64(best.Config),
						float64(base.BytesStreamed)/float64(best.BytesStreamed)))
				}
			}
			return append(notes,
				"a differential miss streams only the frames that differ from the member's verified resident state (§2.2)")
		},
	}
}
