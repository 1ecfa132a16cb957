package sim

import (
	"testing"
	"testing/quick"
)

func TestClockPeriods(t *testing.T) {
	cases := []struct {
		hz     uint64
		period Time
	}{
		{50_000_000, 20 * Nanosecond},
		{100_000_000, 10 * Nanosecond},
		{200_000_000, 5 * Nanosecond},
		{300_000_000, Time(3_333_333)}, // femtoseconds, truncated
	}
	for _, c := range cases {
		clk := NewClock("clk", c.hz)
		if clk.Period() != c.period {
			t.Errorf("hz=%d: period=%v want %v", c.hz, clk.Period(), c.period)
		}
		if got := clk.Cycles(10); got != 10*c.period {
			t.Errorf("hz=%d: Cycles(10)=%v want %v", c.hz, got, 10*c.period)
		}
	}
}

func TestClockCyclesIn(t *testing.T) {
	clk := NewClock("bus", 50_000_000)
	if n := clk.CyclesIn(100 * Nanosecond); n != 5 {
		t.Errorf("CyclesIn(100ns)=%d want 5", n)
	}
	if n := clk.CyclesIn(19 * Nanosecond); n != 0 {
		t.Errorf("CyclesIn(19ns)=%d want 0", n)
	}
}

func TestZeroFrequencyClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-frequency clock")
		}
	}()
	NewClock("bad", 0)
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t Time
		s string
	}{
		{500 * Femtosecond, "500 fs"},
		{2 * Nanosecond, "2.000 ns"},
		{1500 * Nanosecond, "1.500 us"},
		{2500 * Microsecond, "2.500 ms"},
		{3 * Second, "3.000 s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.s {
			t.Errorf("String(%d)=%q want %q", uint64(c.t), got, c.s)
		}
	}
}

func TestKernelEventOrdering(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(30*Nanosecond, func() { order = append(order, 3) })
	k.Schedule(10*Nanosecond, func() { order = append(order, 1) })
	k.Schedule(20*Nanosecond, func() { order = append(order, 2) })
	k.Advance(25 * Nanosecond)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order after 25ns = %v, want [1 2]", order)
	}
	if k.Now() != 25*Nanosecond {
		t.Fatalf("now = %v, want 25ns", k.Now())
	}
	k.Advance(10 * Nanosecond)
	if len(order) != 3 || order[2] != 3 {
		t.Fatalf("order after 35ns = %v, want [1 2 3]", order)
	}
}

func TestKernelSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(10*Nanosecond, func() { order = append(order, i) })
	}
	k.Advance(10 * Nanosecond)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events fired out of order: %v", order)
		}
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.Schedule(10*Nanosecond, func() { fired = true })
	e.Cancel()
	k.Advance(20 * Nanosecond)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestKernelEventSchedulesEvent(t *testing.T) {
	k := NewKernel()
	var hits []Time
	k.Schedule(10*Nanosecond, func() {
		hits = append(hits, k.Now())
		k.Schedule(5*Nanosecond, func() { hits = append(hits, k.Now()) })
	})
	k.Advance(100 * Nanosecond)
	if len(hits) != 2 || hits[0] != 10*Nanosecond || hits[1] != 15*Nanosecond {
		t.Fatalf("hits = %v", hits)
	}
}

func TestKernelSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Advance(100 * Nanosecond)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	k.ScheduleAt(50*Nanosecond, func() {})
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	done := false
	k.Schedule(10*Nanosecond, func() {})
	k.Schedule(20*Nanosecond, func() { done = true })
	if err := k.RunUntil(func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 20*Nanosecond {
		t.Fatalf("now=%v want 20ns", k.Now())
	}
	if err := k.RunUntil(func() bool { return false }); err == nil {
		t.Fatal("expected error when queue drains")
	}
}

func TestResourceSerialization(t *testing.T) {
	k := NewKernel()
	r := NewResource(k)
	wait, done := r.Acquire(100 * Nanosecond)
	if wait != 0 || done != 100*Nanosecond {
		t.Fatalf("first acquire: wait=%v done=%v", wait, done)
	}
	// Second transaction issued at t=0 must queue behind the first.
	wait, done = r.Acquire(50 * Nanosecond)
	if wait != 100*Nanosecond || done != 150*Nanosecond {
		t.Fatalf("second acquire: wait=%v done=%v", wait, done)
	}
	k.Advance(500 * Nanosecond)
	wait, done = r.Acquire(10 * Nanosecond)
	if wait != 0 || done != 510*Nanosecond {
		t.Fatalf("idle acquire: wait=%v done=%v", wait, done)
	}
}

// Property: advancing in arbitrary chunks fires every scheduled event exactly
// once and in timestamp order.
func TestKernelAdvanceChunksProperty(t *testing.T) {
	f := func(delays []uint16, chunks []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		k := NewKernel()
		var fired []Time
		var max Time
		for _, d := range delays {
			at := Time(d) * Nanosecond
			if at > max {
				max = at
			}
			k.ScheduleAt(at, func() { fired = append(fired, k.Now()) })
		}
		for _, c := range chunks {
			k.Advance(Time(c) * Nanosecond)
		}
		if end := max + Nanosecond; end > k.Now() {
			k.AdvanceTo(end)
		}
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestChainSkip: a step that leaves every time as far ahead of now as it
// found it is repeated in one Skip. A time already past counts as 0 ahead
// and stays where it is, even though, unsigned, it lies "before" now by a
// different amount after every step. A time still ahead moves with now, a
// counter by its step's increment, and the skip ends strictly before the
// next pending event. A cell registered twice still moves once. Skips that
// continue a run end where one Skip of their sum and the per-step loop
// end, and an event scheduled between two of them fires at its own time.
func TestChainSkip(t *testing.T) {
	k := NewKernel()
	k.Advance(100 * Nanosecond)
	idle := 40 * Nanosecond // a busy-until mark long past
	var busy Time
	var steps, words uint64
	step := func() {
		steps++
		words += 2
		k.Advance(10 * Nanosecond)
		busy = k.Now() + 5*Nanosecond
	}
	var ch Chain
	ch.Reset(k)
	ch.Time(&idle, &busy)
	ch.Count(&steps, &words)
	ch.Time(&busy) // a second component on the path holds the same cells
	ch.Count(&words)

	ch.Mark()
	step() // busy was past; now it is 5 ns ahead: no repeat yet
	if n := ch.Skip(100); n != 0 || k.Now() != 110*Nanosecond {
		t.Fatalf("first step skipped %d at %v, want 0 at 110ns", n, k.Now())
	}
	ch.Mark()
	step()
	if n := ch.Skip(100); n != 100 {
		t.Fatalf("repeated step skipped %d, want 100", n)
	}
	if k.Now() != 1120*Nanosecond || busy != 1125*Nanosecond || idle != 40*Nanosecond || steps != 102 || words != 204 {
		t.Fatalf("after the skip: now %v, busy %v, idle %v, %d steps, %d words; want 1120ns, 1125ns, 40ns, 102, 204",
			k.Now(), busy, idle, steps, words)
	}

	fired := false
	k.ScheduleAt(1180*Nanosecond, func() { fired = true })
	ch.Mark()
	step()
	// The event is due right as the fifth step would end: only four fit.
	if n := ch.Skip(100); n != 4 || k.Now() != 1170*Nanosecond || fired {
		t.Fatalf("skip toward an event: %d steps to %v (fired %v), want 4 to 1170ns before it fires", n, k.Now(), fired)
	}
	ch.Mark()
	step()
	if n := ch.Skip(100); n != 0 || !fired || steps != 108 {
		t.Fatalf("a step that fired an event skipped %d (fired %v, %d steps), want 0 after it fired, 108 steps", n, fired, steps)
	}

	// Continued Skips against one Skip of their sum and the plain loop.
	type rig struct {
		k            *Kernel
		idle, busy   Time
		steps, words uint64
		ch           Chain
	}
	newRig := func() *rig {
		r := &rig{k: NewKernel(), idle: 40 * Nanosecond}
		r.k.Advance(100 * Nanosecond)
		r.ch.Reset(r.k)
		r.ch.Time(&r.idle, &r.busy)
		r.ch.Count(&r.steps, &r.words)
		return r
	}
	stepOf := func(r *rig) {
		r.steps++
		r.words += 2
		r.k.Advance(10 * Nanosecond)
		r.busy = r.k.Now() + 5*Nanosecond
	}
	// Each rig takes two plain steps and then 2+57 more: by the loop, by
	// one Skip of 57, or by Skips of 20, 30 and 7.
	loop, one, cont := newRig(), newRig(), newRig()
	for _, r := range []*rig{loop, one, cont} {
		stepOf(r)
		r.ch.Mark()
		stepOf(r)
	}
	for range 57 {
		stepOf(loop)
	}
	if n := one.ch.Skip(57); n != 57 {
		t.Fatalf("one Skip applied %d steps, want 57", n)
	}
	for _, limit := range []int{20, 30, 7} {
		if n := cont.ch.Skip(limit); n != limit {
			t.Fatalf("a continued Skip applied %d steps, want %d", n, limit)
		}
	}
	state := func(r *rig) [5]uint64 {
		return [5]uint64{uint64(r.k.Now()), uint64(r.idle), uint64(r.busy), r.steps, r.words}
	}
	if a, b, c := state(loop), state(one), state(cont); a != b || a != c {
		t.Fatalf("loop %v, one Skip %v, continued Skips %v: want all alike", a, b, c)
	}

	// An event scheduled between two Skips, 33 ns on: the second Skip
	// stops strictly before it, and the steps after it find it fired at
	// its own time.
	r := newRig()
	stepOf(r)
	r.ch.Mark()
	stepOf(r)
	r.ch.Skip(5)
	due := r.k.Now() + 33*Nanosecond
	var firedAt Time
	r.k.ScheduleAt(due, func() { firedAt = r.k.Now() })
	if n := r.ch.Skip(100); n != 3 || r.k.Now() != due-3*Nanosecond || firedAt != 0 {
		t.Fatalf("Skip toward an event scheduled after the mark: %d steps to %v (fired at %v), want 3 to %v",
			n, r.k.Now(), firedAt, due-3*Nanosecond)
	}
	stepOf(r)
	if firedAt != due {
		t.Fatalf("the event fired at %v, want %v", firedAt, due)
	}
}
