package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/sim"
)

// GenArrivals draws n absolute Poisson arrival times — exponential gaps,
// independent arrivals at rate 1/mean — from a seeded generator: the same
// (seed, n, mean) always yields the same trace.
func GenArrivals(seed int64, n int, mean sim.Time) ([]sim.Time, error) {
	if n <= 0 || mean <= 0 {
		return nil, fmt.Errorf("bench: bad arrival trace (n=%d mean=%v)", n, mean)
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]sim.Time, n)
	var now sim.Time
	for i := range out {
		out[i] = now
		now += sim.Time(float64(mean) * rng.ExpFloat64())
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
