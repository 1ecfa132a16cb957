package sim

import (
	"container/heap"
	"errors"
	"fmt"
)

// Event is a scheduled callback. Events may be cancelled before they fire.
type Event struct {
	at        Time
	seq       uint64
	fn        func()
	cancelled bool
	index     int // heap index, -1 once popped
}

// Cancel prevents the event from firing. Safe to call more than once.
func (e *Event) Cancel() { e.cancelled = true }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Kernel is the discrete-event simulation kernel. It is single-threaded by
// design: the platform's CPU driver advances time explicitly and scheduled
// events fire as the timeline passes them.
type Kernel struct {
	now    Time
	seq    uint64
	queue  eventHeap
	maxRun int
}

// NewKernel returns a kernel with the timeline at zero.
func NewKernel() *Kernel {
	return &Kernel{maxRun: 1 << 24}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// NextAt returns the time of the earliest pending event, or the largest
// Time when none is pending. A cancelled event not yet passed still counts.
func (k *Kernel) NextAt() Time {
	if len(k.queue) == 0 {
		return ^Time(0)
	}
	return k.queue[0].at
}

// Schedule arranges for fn to run delay from now. It returns the event so the
// caller may cancel it.
func (k *Kernel) Schedule(delay Time, fn func()) *Event {
	return k.ScheduleAt(k.now+delay, fn)
}

// ScheduleAt arranges for fn to run at absolute time at. Scheduling in the
// past is an error expressed by panic, since it indicates a broken model.
func (k *Kernel) ScheduleAt(at Time, fn func()) *Event {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (at=%v now=%v)", at, k.now))
	}
	k.seq++
	e := &Event{at: at, seq: k.seq, fn: fn}
	heap.Push(&k.queue, e)
	return e
}

// Advance moves the timeline forward by d, firing every event that falls
// inside the advanced span (in timestamp order).
func (k *Kernel) Advance(d Time) { k.AdvanceTo(k.now + d) }

// AdvanceTo moves the timeline to absolute time t (which must not be in the
// past), firing due events in order.
func (k *Kernel) AdvanceTo(t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: AdvanceTo into the past (t=%v now=%v)", t, k.now))
	}
	for len(k.queue) > 0 && k.queue[0].at <= t {
		e := heap.Pop(&k.queue).(*Event)
		if e.cancelled {
			continue
		}
		k.now = e.at
		e.fn()
	}
	k.now = t
}

// ErrNoEvents is returned by Step and RunUntil when the queue drains before
// the goal is met.
var ErrNoEvents = errors.New("sim: no pending events")

// Step pops and fires the next pending event, moving time to it.
func (k *Kernel) Step() error {
	for len(k.queue) > 0 {
		e := heap.Pop(&k.queue).(*Event)
		if e.cancelled {
			continue
		}
		k.now = e.at
		e.fn()
		return nil
	}
	return ErrNoEvents
}

// RunUntil steps events until pred reports true. It fails if the event queue
// drains or the step budget is exhausted first (a guard against models that
// reschedule forever).
func (k *Kernel) RunUntil(pred func() bool) error {
	for steps := 0; !pred(); steps++ {
		if steps > k.maxRun {
			return fmt.Errorf("sim: RunUntil exceeded %d steps", k.maxRun)
		}
		if err := k.Step(); err != nil {
			return fmt.Errorf("sim: RunUntil: %w", err)
		}
	}
	return nil
}
