package main

import (
	"math"
	"time"
)

// A shared cloud host lends its cores to other tenants, and its speed
// drifts by a third over minutes: on a 2-vCPU Intel Xeon container, one
// 10-seed series saw hit-dispatch's raw request rate range from 27k to
// 54k req/s. Process CPU time drifts the same way, so the cause is
// contention inside the cores, not descheduling, and no statistic within
// one run can remove it. The host metrics are therefore scaled by a
// calibration taken beside every timed span: two fixed loops, independent
// of the repository's code, whose time measures how fast the host runs at
// that moment. On that container, scaling cut the spread of
// host_req_per_s across ten seeds from 0.12-0.22 to 0.03-0.07.

// The calibration loops' times on the reference host, a quiet 2-vCPU
// Intel Xeon container: the fastest medians seen there.
const (
	refALU    = 2.9e-3 // s
	refMemory = 4.66e-3
)

// calWords is the input of the arithmetic loop.
var calWords = func() []uint32 {
	w := make([]uint32, 2048)
	x := uint32(1)
	for i := range w {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		w[i] = x
	}
	return w
}()

// calCycle is one random cycle through 4 MiB, bigger than the host's
// caches: following it measures memory latency.
var calCycle = func() []uint32 {
	const n = 1 << 20
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i)
		order[i], order[j] = order[j], order[i]
	}
	next := make([]uint32, n)
	for i, v := range order {
		next[v] = order[(i+1)%n]
	}
	return next
}()

// calSink keeps the loops from being optimised away.
var calSink uint32

// slowdown times the two calibration loops and returns how much slower
// the host runs them now than the reference host did: the geometric mean
// of the two ratios, 1 on the reference, 1.3 when the loops take 30%
// longer. The arithmetic loop is a bit-serial CRC-32, the memory loop a
// chase through calCycle; the miss workloads spend their time in the
// first kind of work and hit-dispatch more in the second.
func slowdown() float64 {
	t0 := time.Now()
	crc := uint32(0)
	for rep := 0; rep < 10; rep++ {
		for _, w := range calWords {
			crc ^= w
			for i := 0; i < 32; i++ {
				if crc&1 != 0 {
					crc = crc>>1 ^ 0xEDB88320
				} else {
					crc >>= 1
				}
			}
		}
	}
	alu := time.Since(t0).Seconds()

	t0 = time.Now()
	at := uint32(0)
	for i := 0; i < 50000; i++ {
		at = calCycle[at]
	}
	memory := time.Since(t0).Seconds()
	calSink += crc + at
	return math.Sqrt(alu / refALU * memory / refMemory)
}
