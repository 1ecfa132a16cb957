package bench

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/pool"
)

// FaultSuite is table S7: availability and tail latency versus upset
// rate, one row per scenario of the "sweep" fault.Campaign. Each row
// drives the workload Paced over two dual-region 64-bit boards under
// mincost placement with dispatch scrubbing on, injecting the scenario's
// due events after each completion and following every injection with a
// full scrub pass. The campaign is generated from the workload's seed and
// length, and the injection points ride the deterministic completion
// count, so the same workload always produces the same rows.
func FaultSuite(w Workload) (Suite, error) {
	// A scratch pool is booted only to measure each region's fault
	// space; the suite's runs boot their own.
	cfg := pool.Config{Sys64: 2, Regions: 2}
	p, err := pool.New(cfg)
	if err != nil {
		return Suite{}, err
	}
	scenarios, err := fault.Campaign("sweep", w.Seed, w.N, fault.PoolSlots(p))
	if err != nil {
		return Suite{}, err
	}
	cases := make([]Case, len(scenarios))
	for i, sc := range scenarios {
		cases[i] = Case{Label: sc.Name + "+scrub", Pool: cfg, Policy: "mincost", Scrub: true, Fault: sc, Drive: Paced}
	}
	return Suite{
		ID:       "S7",
		Title:    "Availability under injected configuration upsets with readback scrubbing",
		Columns:  []string{"scenario", "rate", "injected", "detected", "requeued", "repaired", "availability", "config time", "repair time", "p99 latency"},
		Workload: w,
		Cases:    cases,
		cells: func(r Run) []string {
			st := r.Stats
			return []string{r.Fault.Name, fmt.Sprintf("%.2g", r.Fault.Rate),
				fmt.Sprint(len(r.Fault.Events)), fmt.Sprint(st.FaultsDetected),
				fmt.Sprint(st.Requeues), fmt.Sprint(st.Repairs),
				fmt.Sprintf("%.3f", r.Availability()),
				fmtNS(float64(st.Config)), fmtNS(float64(st.RepairConfig)),
				fmtNS(float64(r.Pct(0.99)[0]))}
		},
		notes: func([]Run) []string {
			return []string{
				"rate is the per-completion upset probability; every injected flip lands inside a region band (recoverable by a complete reload)",
				"an upset costs repair bandwidth, never correctness: all requests complete and the static design stays intact",
				"nothing is requeued: the scrub pass after each injection catches the flip on the settled pool before the next dispatch (TestFaultRequeueOnDispatchScrub pins the requeue path)",
				"detected can trail injected: a flip overwritten by the region's next complete stream is healed before any readback sees it",
			}
		},
		fill: func(row *Row, r Run) {
			row.Availability = r.Availability()
			row.P99Ms = ms(r.Pct(0.99)[0])
		},
	}, nil
}
