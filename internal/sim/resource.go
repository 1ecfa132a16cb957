package sim

// Resource models a shared, serially-occupied resource such as a bus. A
// transaction acquires the resource for a hold time; if the resource is busy,
// the transaction queues behind the current occupant. Occupancy statistics
// feed the utilization reports.
type Resource struct {
	k         *Kernel
	busyUntil Time
	busyTotal Time
	grants    uint64
	waited    Time
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
	r.busyTotal += hold
	r.grants++
	r.waited += wait
	return wait, done
}

// Stats reports cumulative occupancy, grant count, and queuing delay.
func (r *Resource) Stats() (busy Time, grants uint64, waited Time) {
	return r.busyTotal, r.grants, r.waited
}

// Utilization reports the fraction of elapsed simulated time the resource was
// occupied. It returns 0 before any time has elapsed.
func (r *Resource) Utilization() float64 {
	if r.k.Now() == 0 {
		return 0
	}
	return float64(r.busyTotal) / float64(r.k.Now())
}
