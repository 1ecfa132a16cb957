package bench

import (
	"fmt"

	"repro/internal/pool"
)

// PrefetchSuite is table S3: how stream planning, placement and the
// speculative pipeline change the visible configuration time of the same
// seeded workload over the 2+2 pool. Mincost placement with the
// differential planner and no prefetch runs first, then prefetching
// under both predictors: what they hide of the first row's visible
// configuration time, and what they cost in wasted speculative bytes.
// Two lru rows follow without prefetch: the planner under lru placement,
// which prices mincost against lru, and complete streams only, which
// prices the §2.2 choice of differential streams.
//
// The drive is Paced: members regularly sit idle while others compute —
// the gap the prefetch pipeline fills with speculative reconfiguration —
// and every request is placed against settled state. Paced rows are
// byte-identical run to run, so they gate at the CI band.
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
		Title:    "Stream planning, placement and prefetch: visible configuration time on the paced seeded workload",
		Columns:  []string{"configuration", "hits", "pf hits", "pf abort", "config time", "hidden config", "bytes streamed", "pf bytes", "pf wasted"},
		Workload: w,
		Cases: []Case{
			c("mincost", ""), c("mincost", "freq"), c("mincost", "markov"), c("lru", ""),
			{Label: "lru+complete-only", Pool: cfg, Policy: "lru", CompleteOnly: true, Drive: Paced},
		},
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
			base := runs[0].Stats
			var planner, complete *Run
			for i, r := range runs {
				switch {
				case r.Predictor != "":
					if base.Config > 0 {
						notes = append(notes, fmt.Sprintf(
							"%s hides %.0f%% of %s's visible configuration time",
							r.Label, 100*(1-float64(r.Stats.Config)/float64(base.Config)), runs[0].Label))
					}
				case r.CompleteOnly:
					complete = &runs[i]
				case r.Policy == "lru":
					planner = &runs[i]
				}
			}
			if planner != nil && complete != nil && planner.Stats.Config > 0 && planner.Stats.BytesStreamed > 0 {
				notes = append(notes, fmt.Sprintf(
					"%s vs %s: %.1fx less visible configuration time, %.1fx fewer bytes streamed — a differential miss streams only the frames that differ from the member's verified resident state (§2.2)",
					planner.Label, complete.Label,
					float64(complete.Stats.Config)/float64(planner.Stats.Config),
					float64(complete.Stats.BytesStreamed)/float64(planner.Stats.BytesStreamed)))
			}
			return append(notes,
				"visible config time is what requests wait for; speculative streams run while members would sit idle",
				"an aborted speculative stream only wastes bytes: the §2.2 hazard gate forces the next real load onto a complete stream")
		},
		// The drive submits one request at a time.
		fill: func(row *Row, _ Run) { row.Window = 1 },
	}
}
