package bench

import (
	"fmt"

	"repro/internal/pool"
)

// PrefetchSuite is table S3: how much of the baseline's visible
// configuration time the speculative pipeline hides on the same seeded
// workload over the 2+2 pool, and what it costs in wasted speculative
// bytes. The PR 2 configuration (mincost placement, differential
// planner, no prefetch) runs first, then prefetching under both
// predictors.
//
// The drive is Paced: members regularly sit idle while others compute —
// the gap the prefetch pipeline fills with speculative reconfiguration.
// A concurrent drive would keep every member busy and leave nothing to
// overlap. Paced rows are byte-identical run to run, so they gate at the
// CI default band.
func PrefetchSuite(w Workload) Suite {
	cfg := pool.Config{Sys32: 2, Sys64: 2}
	c := func(policy, predictor string) Case {
		label := policy + "+noprefetch"
		if predictor != "" {
			label = policy + "+prefetch-" + predictor
		}
		return Case{Label: label, Pool: cfg, Policy: policy, Predictor: predictor, Drive: Paced}
	}
	return Suite{
		ID:       "S3",
		Title:    "Prefetch pipeline: visible configuration time on the paced seeded workload",
		Columns:  []string{"configuration", "hits", "pf hits", "pf abort", "config time", "hidden config", "bytes streamed", "pf bytes", "pf wasted"},
		Workload: w,
		Cases:    []Case{c("mincost", ""), c("mincost", "freq"), c("mincost", "markov")},
		cells: func(r Run) []string {
			st := r.Stats
			return []string{r.Label,
				fmt.Sprint(st.Hits), fmt.Sprint(st.PrefetchHits), fmt.Sprint(st.PrefetchAborted),
				fmtNS(float64(st.Config)), fmtNS(float64(st.HiddenConfig)),
				fmt.Sprintf("%d B", st.BytesStreamed), fmt.Sprintf("%d B", st.PrefetchBytes),
				fmt.Sprintf("%d B", st.PrefetchWasted)}
		},
		notes: func(runs []Run) []string {
			var notes []string
			if len(runs) > 1 {
				base := runs[0].Stats
				for _, r := range runs[1:] {
					if base.Config > 0 {
						notes = append(notes, fmt.Sprintf(
							"%s hides %.0f%% of %s's visible configuration time",
							r.Label, 100*(1-float64(r.Stats.Config)/float64(base.Config)), runs[0].Label))
					}
				}
			}
			return append(notes,
				"visible config time is what requests wait for; speculative streams run while members would sit idle",
				"an aborted speculative stream only wastes bytes: the §2.2 hazard gate forces the next real load onto a complete stream")
		},
		// The drive submits one request at a time.
		fill: func(row *Row, _ Run) { row.Window = 1 },
	}
}
