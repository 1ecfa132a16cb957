package bench

import (
	"fmt"

	"repro/internal/sim"
)

// SLOSuite is table S9: deterministic sojourn percentiles of a pinned-
// placement service trace replayed through the k-server overlay under
// the S6 arrival traces — the same pool, seed, workload, module, arrival
// process and offered loads, so the rows are the deterministic twins of
// the S6 poisson column. Where S6 drives the live sharded scheduler
// (host-dependent feeder interleaving, gated only through its zero
// config/bytes invariant), S9 removes every source of nondeterminism: the
// service trace comes from a Paced all-hit drive and the queueing from
// pure arithmetic, so p50/p95/p99 reproduce byte-identically and gate as
// hard SLO columns.
func SLOSuite() Suite {
	var cases []Case
	for _, rho := range offeredLoads {
		cases = append(cases, Case{
			Label: fmt.Sprintf("rho-%.2g/%s", rho, arrivalProcess),
			Pool:  capacityPool, Policy: "lru", Pin: "jenkins",
			Rho: rho, Drive: Paced,
		})
	}
	return Suite{
		ID:       "S9",
		Title:    "Latency SLO: gated sojourn percentiles of the pinned-placement replay",
		Columns:  []string{"process", "offered load", "mean gap", "p50", "p95", "p99", "max", "throughput"},
		Workload: capacityWorkload(),
		Cases:    cases,
		run:      replay,
		cells: func(r Run) []string {
			thr := "-"
			if r.Makespan > 0 {
				thr = fmt.Sprintf("%.0f/s", r.SimThroughput())
			}
			pct := r.Pct(0.50, 0.95, 0.99, 1)
			return []string{arrivalProcess, fmt.Sprintf("%.2f", r.Rho), fmtNS(float64(r.MeanGap)),
				fmtNS(float64(pct[0])), fmtNS(float64(pct[1])), fmtNS(float64(pct[2])),
				fmtNS(float64(pct[3])), thr}
		},
		notes: func(runs []Run) []string {
			var notes []string
			if len(runs) > 0 {
				r := runs[0]
				var total sim.Time
				for _, b := range r.Stats.BusyTime {
					total += b
				}
				notes = append(notes, fmt.Sprintf(
					"service trace: %d all-hit requests, avg service %v, replayed over %d virtual servers (paced pinned-placement run)",
					len(r.Lats), total/sim.Time(r.Stats.Done), r.Boards))
			}
			return append(notes,
				"deterministic twin of the S6 poisson column: same pool, seed, arrival traces and offered loads, but paced service measurement and arithmetic replay instead of the live sharded drive",
				"p50/p95/p99 here are CI-gated SLO columns — they reproduce byte-identically, so any regression past the band fails benchdiff")
		},
	}
}

// replay measures the first case's all-hit service trace once — the
// module is pinned in every slot and the workload runs Paced, so every
// request is a cache hit, its latency pure execution time, and the trace
// byte-identical run to run — then pushes it through the virtual
// k-server queue (one server per member) at every case's offered load,
// under the same GenArrivals traces the S6 drive submits.
func replay(s Suite) ([]Run, error) {
	svc, err := Drive(s.Workload, s.Cases[0])
	if err != nil {
		return nil, fmt.Errorf("%s service trace: %w", s.ID, err)
	}
	runs := make([]Run, 0, len(s.Cases))
	for _, c := range s.Cases {
		if c.Rho <= 0 {
			return nil, fmt.Errorf("bench: offered load %v", c.Rho)
		}
		r := svc
		r.Case = c
		r.MeanGap = meanGap(svc.Boards, c.Rho)
		arr, err := GenArrivals(s.Workload.Seed, len(svc.Lats), arrivalProcess, r.MeanGap)
		if err != nil {
			return nil, err
		}
		r.Lats, r.Makespan = ReplayOpenLoop(arr, svc.Lats, svc.Boards)
		runs = append(runs, r)
	}
	return runs, nil
}
