package sim

import "slices"

// Chain is the timing state of a pipeline of components, such as the path
// of a store from the CPU across the buses into a device: every absolute
// time the components hold (busy-until marks, queued completions) and
// every counter a step moves, registered by address. Each component
// registers its own cells through one method; a path that passes a
// component twice registers it twice, and the chain keeps each cell once,
// so it moves once per step.
//
// Each step of such a pipeline waits with max and advances with +, so what
// it does depends only on that state taken relative to now, a time already
// past counting as 0. Once one step leaves the relative state as it found
// it, every later step of the same kind repeats it: now and every time
// still ahead move by the same Δ, and every counter by the same δ. Mark and
// Skip find such a step and apply n more of it at once.
type Chain struct {
	k      *Kernel
	times  []*Time
	counts []*uint64

	// What Mark saw: now, the next pending event, and every cell's value.
	now, next Time
	t0        []Time
	c0        []uint64
}

// Reset empties the chain and binds it to k.
func (ch *Chain) Reset(k *Kernel) {
	ch.k = k
	ch.times, ch.counts = ch.times[:0], ch.counts[:0]
}

// Time registers absolute times the chain's steps read and move. A time
// already registered is not added again.
func (ch *Chain) Time(ts ...*Time) {
	for _, t := range ts {
		if !slices.Contains(ch.times, t) {
			ch.times = append(ch.times, t)
		}
	}
}

// Count registers counters the chain's steps move. A counter already
// registered is not added again.
func (ch *Chain) Count(cs ...*uint64) {
	for _, c := range cs {
		if !slices.Contains(ch.counts, c) {
			ch.counts = append(ch.counts, c)
		}
	}
}

// Mark records the chain's state before one step.
func (ch *Chain) Mark() {
	ch.now, ch.next = ch.k.Now(), ch.k.NextAt()
	ch.t0, ch.c0 = ch.t0[:0], ch.c0[:0]
	for _, t := range ch.times {
		ch.t0 = append(ch.t0, *t)
	}
	for _, c := range ch.counts {
		ch.c0 = append(ch.c0, *c)
	}
}

// Skip follows the one step taken since Mark. If that step fired no event
// and left every time as far ahead of now as Mark found it, Skip applies up
// to limit more of the same step at once and returns how many it applied:
// now and every time still ahead move n·Δ, every counter n·δ, and the kernel
// stops strictly before its next pending event, the earlier of the one
// Mark saw and the one pending now, so that event fires at its own time.
// The steps must schedule no event. Otherwise Skip returns 0 and changes
// nothing.
//
// After applying n steps, Skip re-bases the mark one step back, so a
// following Skip, with nothing moved in between, continues the same run.
func (ch *Chain) Skip(limit int) int {
	now, next := ch.k.Now(), min(ch.next, ch.k.NextAt())
	if now >= next || limit <= 0 {
		return 0
	}
	for i, t := range ch.times {
		if ahead(*t, now) != ahead(ch.t0[i], ch.now) {
			return 0
		}
	}
	d, n := now-ch.now, Time(limit)
	if d > 0 {
		n = min(n, (next-1-now)/d)
	}
	if n == 0 {
		return 0
	}
	for _, t := range ch.times {
		if *t > now {
			*t += n * d
		}
	}
	// The mark moves with the run: it now stands one step behind the
	// state, as it stood behind the step taken since Mark.
	ch.now += n * d
	for i := range ch.t0 {
		ch.t0[i] += n * d
	}
	for i, c := range ch.counts {
		step := *c - ch.c0[i]
		*c += uint64(n) * step
		ch.c0[i] = *c - step
	}
	ch.next = next
	ch.k.AdvanceTo(now + n*d)
	return int(n)
}

// ahead is how far t lies ahead of now, 0 once it has passed. Time is
// unsigned: max(t-now, 0) would wrap a past time to a huge one.
func ahead(t, now Time) Time {
	if t > now {
		return t - now
	}
	return 0
}
