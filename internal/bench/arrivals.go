package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/sim"
)

// ArrivalProcesses lists the open-loop arrival generators.
func ArrivalProcesses() []string { return []string{"uniform", "poisson", "bursty"} }

// burstLen is the bursty process's on-phase length: arrivals come in
// back-to-back groups of this size separated by long off gaps, keeping the
// configured mean rate.
const burstLen = 8

// GenArrivals draws n absolute arrival times for the named open-loop
// process with the given mean inter-arrival gap, from a seeded generator —
// the same (seed, n, process, mean) always yields the same trace.
//
//   - "uniform": fixed gaps (the closed-loop-like baseline)
//   - "poisson": exponential gaps — independent arrivals at rate 1/mean
//   - "bursty": on/off — bursts of burstLen arrivals with tenth-gap
//     spacing, then an off gap restoring the mean rate
func GenArrivals(seed int64, n int, process string, mean sim.Time) ([]sim.Time, error) {
	if n <= 0 || mean <= 0 {
		return nil, fmt.Errorf("bench: bad arrival trace (n=%d mean=%v)", n, mean)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]sim.Time, n)
	var now sim.Time
	switch process {
	case "uniform":
		for i := range out {
			out[i] = now
			now += mean
		}
	case "poisson":
		for i := range out {
			out[i] = now
			now += sim.Time(float64(mean) * rng.ExpFloat64())
		}
	case "bursty":
		// Each burst of burstLen arrivals spans (burstLen-1)*mean/10; the
		// off gap brings the average spacing back to mean.
		inBurst := mean / 10
		off := sim.Time(burstLen)*mean - sim.Time(burstLen-1)*inBurst
		for i := range out {
			out[i] = now
			if (i+1)%burstLen == 0 {
				// Jittered off phase so bursts do not phase-lock.
				now += sim.Time(float64(off) * (0.5 + rng.Float64()))
			} else {
				now += inBurst
			}
		}
	default:
		return nil, fmt.Errorf("bench: unknown arrival process %q (have %v)", process, ArrivalProcesses())
	}
	return out, nil
}

// ReplayOpenLoop pushes the (arrival, service) trace through a virtual
// k-server FCFS queue and returns each request's sojourn time (queue wait
// plus service) and the makespan. The per-member simulated-time model
// measures service but not queue wait (a request waiting for a busy member
// costs nothing anywhere); this replay adds the missing queueing dimension
// for latency-percentile reporting. k is the pool's MEMBER count: sibling
// regions of one board serialize on the board's single timeline, so extra
// regions add cache capacity (already baked into the measured service
// times) but never execution parallelism.
func ReplayOpenLoop(arrivals, services []sim.Time, k int) (sojourn []sim.Time, makespan sim.Time) {
	if k < 1 {
		k = 1
	}
	free := make([]sim.Time, k) // next-free time per virtual server
	sojourn = make([]sim.Time, len(arrivals))
	for i, at := range arrivals {
		best := 0
		for j := 1; j < k; j++ {
			if free[j] < free[best] {
				best = j
			}
		}
		start := at
		if free[best] > start {
			start = free[best]
		}
		end := start + services[i]
		free[best] = end
		sojourn[i] = end - at
		if end > makespan {
			makespan = end
		}
	}
	return sojourn, makespan
}

// Percentile returns the nearest-rank q-quantile (0 < q <= 1) of the
// latencies.
func Percentile(lats []sim.Time, q float64) sim.Time {
	return Percentiles(lats, q)[0]
}

// Percentiles returns the nearest-rank quantiles of the latencies, sorting
// once for all requested ranks.
func Percentiles(lats []sim.Time, qs ...float64) []sim.Time {
	out := make([]sim.Time, len(qs))
	if len(lats) == 0 {
		return out
	}
	s := append([]sim.Time(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i, q := range qs {
		idx := int(math.Ceil(q*float64(len(s)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(s) {
			idx = len(s) - 1
		}
		out[i] = s[idx]
	}
	return out
}
