package bench

import (
	"fmt"

	"repro/internal/pool"
	"repro/internal/sim"
)

// The open-loop axis S6 and S9 share. At offered load rho the mean
// inter-arrival gap is meanService/(members*rho), where meanService is
// the measured mean all-hit jenkins service on the S6 pool (p50 61us, p99
// 111us). A constant (rather than a per-run calibration) keeps every
// row's arrival trace byte-identical across runs and machines.
const (
	arrivalProcess = "poisson"
	meanService    = 60 * sim.Microsecond
	// feeders is the number of concurrent open-loop submitters.
	feeders = 4
)

// offeredLoads spans well under capacity to saturating.
var offeredLoads = []float64{0.25, 1, 4}

// meanGap is the mean inter-arrival gap at offered load rho on a pool of
// the given member count.
func meanGap(members int, rho float64) sim.Time {
	return sim.Time(float64(meanService) / (float64(members) * rho))
}

// capacityWorkload is the S6/S9 stream: N is deep enough that the
// 1-shard dispatcher's O(pending x slots) queue scan dominates its
// request path — the cost the shard sweep exposes — and batch 1 keeps
// sojourns in arrival order.
func capacityWorkload() Workload { return Workload{Seed: 7, N: 8000, Mix: "jenkins", Batch: 1} }

// capacityPool is a homogeneous 32-board pool: every member simulates at
// the same real-time speed. In a mixed pool the wider systems execute
// their simulation faster and win a disproportionate share of the
// backlogged queue, skewing the per-member sojourn chains.
var capacityPool = pool.Config{Sys32: 32}

// scalingCases is the S6 sweep in shard-major order (all offered loads
// for one shard count, then the next), one fresh pool per cell.
func scalingCases(cfg pool.Config, shards []int, rhos []float64) []Case {
	var cases []Case
	for _, n := range shards {
		for _, rho := range rhos {
			cases = append(cases, Case{
				Label: fmt.Sprintf("shards-%d/rho-%.2g/%s", n, rho, arrivalProcess),
				Pool:  cfg, Policy: "lru", Pin: "jenkins",
				Shards: n, Rho: rho, Drive: OpenLoop,
			})
		}
	}
	return cases
}

// ScalingSuite is table S6: simulated sojourn percentiles and real
// throughput of the live sharded scheduler versus offered load and shard
// count.
//
// S6 measures scheduler capacity, so the workload is the dispatch-bound
// analogue of a null RPC: one module, pinned in every slot before the
// drive starts, so every request is a bitstream cache hit and the request
// path never streams configuration data. Real wall-clock throughput then
// isolates the dispatcher — queue scans, lock hold times, placement
// bookkeeping — which is exactly the cost sharding attacks; with misses
// in the mix the word-serial ICAP stream simulation (tens of real
// milliseconds per complete load) would swamp that signal three orders
// of magnitude deep. The pin also makes the gated metrics exact: an S6
// row's visible configuration time and request-path bytes are zero by
// construction, and benchdiff's zero-baseline rule (tolerance 0) turns
// any future miss on this drive into a hard gate failure. Throughput and
// percentiles are host- or schedule-dependent and informational.
//
// The drive is open-loop in simulated time only: feeders submit
// back-to-back rather than pacing arrival stamps against the host clock,
// because a one-core host sleeping between submissions would measure its
// own timer, not the scheduler. Queueing behaviour versus arrival rate
// comes from the stamps: a member's clock advances to each arrival before
// serving it (Result.Sojourn). Real elapsed time measures dispatch
// capacity under a fully backlogged queue, the regime every cell shares.
func ScalingSuite() Suite {
	return Suite{
		ID:       "S6",
		Title:    "Sharded dispatch under open-loop arrivals: latency and throughput vs offered load and shard count",
		Columns:  []string{"shards", "process", "offered load", "p50", "p95", "p99", "sim throughput", "real throughput", "steals"},
		Workload: capacityWorkload(),
		Cases:    scalingCases(capacityPool, []int{1, 2, 4, 8}, offeredLoads),
		cells: func(r Run) []string {
			pct := r.Pct(0.50, 0.95, 0.99)
			return []string{fmt.Sprint(r.Shards), arrivalProcess, fmt.Sprintf("%.2f", r.Rho),
				fmtNS(float64(pct[0])), fmtNS(float64(pct[1])), fmtNS(float64(pct[2])),
				fmt.Sprintf("%.0f/s", r.SimThroughput()),
				fmt.Sprintf("%.0f/s", r.RealThroughput()),
				fmt.Sprint(r.Stats.Steals)}
		},
		notes: func(runs []Run) []string {
			var notes []string
			if sp, lo, hi, ok := SaturationSpeedup(runs); ok {
				notes = append(notes, fmt.Sprintf(
					"at offered load %.2f, %d shards sustain %.1fx the real dispatch throughput of %d shard(s) (%.0f/s vs %.0f/s)",
					hi.Rho, hi.Shards, sp, lo.Shards, hi.RealThroughput(), lo.RealThroughput()))
			}
			return append(notes,
				"all-hit capacity drive: the module is pre-warmed into every slot, so the request path streams zero configuration bytes and real throughput isolates the dispatcher",
				"sojourn percentiles (queue wait + service) are measured on each member's simulated clock, which advances to every generated arrival stamp before serving it; real throughput is host wall-clock and never gated",
				"submission is back-to-back from concurrent feeders — open-loop in simulated time — so every cell measures dispatch capacity under a fully backlogged queue",
				"under full backlog, placement is completion-driven and bursts onto whichever member last freed, so the sojourn chains concentrate beyond the balanced k-server ideal the S9 replay assumes — the S9/S6 percentile gap is that imbalance, measured")
		},
	}
}

// SaturationSpeedup reports the sustained real-throughput ratio between
// the largest and smallest shard count at the highest offered load in the
// runs — the S6 headline number. ok is false when the runs hold fewer than
// two shard counts at that load.
func SaturationSpeedup(runs []Run) (speedup float64, lo, hi Run, ok bool) {
	maxRho := 0.0
	for _, r := range runs {
		if r.Rho > maxRho {
			maxRho = r.Rho
		}
	}
	first := true
	for _, r := range runs {
		if r.Rho != maxRho {
			continue
		}
		if first || r.Shards < lo.Shards {
			lo = r
		}
		if first || r.Shards > hi.Shards {
			hi = r
		}
		first = false
	}
	if first || lo.Shards == hi.Shards || lo.RealThroughput() <= 0 {
		return 0, lo, hi, false
	}
	return hi.RealThroughput() / lo.RealThroughput(), lo, hi, true
}
