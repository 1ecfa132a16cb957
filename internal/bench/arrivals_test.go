package bench

import (
	"testing"

	"repro/internal/sim"
)

// TestGenArrivalsDeterministicAndMonotonic: the Poisson trace is seeded,
// reproducible, non-decreasing and roughly at the configured mean rate.
func TestGenArrivalsDeterministicAndMonotonic(t *testing.T) {
	const n = 512
	mean := sim.Time(1_000_000_000) // 1 us
	a, err := GenArrivals(11, n, mean)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenArrivals(11, n, mean)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace not reproducible at %d (%v vs %v)", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals not monotonic at %d", i)
		}
	}
	// The realized mean gap stays within 2x of the configured mean.
	span := float64(a[n-1] - a[0])
	if got := span / float64(n-1); got < 0.5*float64(mean) || got > 2*float64(mean) {
		t.Errorf("realized mean gap %.0f fs, configured %d fs", got, mean)
	}
	if _, err := GenArrivals(1, 0, mean); err == nil {
		t.Fatal("empty trace accepted")
	}
}

// TestReplayOpenLoopQueueing: a 2-server replay of a known trace produces
// hand-checkable sojourn times, and a saturating trace queues.
func TestReplayOpenLoopQueueing(t *testing.T) {
	// Arrivals at 0,0,0 with 10-unit services on 2 servers: the third
	// request waits for the first free server.
	arr := []sim.Time{0, 0, 0}
	svc := []sim.Time{10, 10, 10}
	soj, makespan := ReplayOpenLoop(arr, svc, 2)
	want := []sim.Time{10, 10, 20}
	for i := range want {
		if soj[i] != want[i] {
			t.Fatalf("sojourn[%d] = %v, want %v (all %v)", i, soj[i], want[i], soj)
		}
	}
	if makespan != 20 {
		t.Fatalf("makespan %v, want 20", makespan)
	}
	if p := Percentiles(soj, 0.99, 0.50); p[0] != 20 || p[1] != 10 {
		t.Fatalf("p99/p50 %v, want 20/10", p)
	}
}
