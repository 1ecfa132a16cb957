package sim

// Resource models a shared, serially-occupied resource such as a bus. A
// transaction acquires the resource for a hold time; if the resource is busy,
// the transaction queues behind the current occupant.
type Resource struct {
	k         *Kernel
	busyUntil Time
}

// NewResource returns a resource bound to kernel k.
func NewResource(k *Kernel) *Resource {
	return &Resource{k: k}
}

// Acquire reserves the resource for hold starting at the earliest moment it
// is free, and returns (wait, done): how long the caller must wait before the
// transaction starts, and the absolute completion time. The caller decides
// whether to block the simulated CPU on the completion (synchronous
// transaction) or to schedule follow-up work at done (background engine).
func (r *Resource) Acquire(hold Time) (wait Time, done Time) {
	now := r.k.Now()
	start := now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	wait = start - now
	done = start + hold
	r.busyUntil = done
	return wait, done
}

// Record registers the resource's busy-until mark in ch.
func (r *Resource) Record(ch *Chain) { ch.Time(&r.busyUntil) }
