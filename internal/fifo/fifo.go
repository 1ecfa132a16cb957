// Package fifo provides the synchronous FIFO used by the PLB Dock's output
// path: the results produced by the dynamic area are buffered here before a
// DMA transfer moves them to main memory (§4.1). The paper's FIFO stores up
// to 2047 64-bit values.
package fifo

// F is a bounded FIFO of 64-bit words. The zero value is unusable; use New.
type F struct {
	buf        []uint64
	head, tail int
	n          int
	overflows  uint64
	maxDepth   int
}

// DockDepth is the output FIFO capacity of the PLB Dock (2047 x 64 bit).
const DockDepth = 2047

// New returns a FIFO with the given capacity.
func New(capacity int) *F {
	if capacity <= 0 {
		panic("fifo: non-positive capacity")
	}
	return &F{buf: make([]uint64, capacity)}
}

// Len returns the current occupancy.
func (f *F) Len() int { return f.n }

// Full reports whether the FIFO is full.
func (f *F) Full() bool { return f.n == len(f.buf) }

// Empty reports whether the FIFO is empty.
func (f *F) Empty() bool { return f.n == 0 }

// Overflows reports how many pushes were dropped on a full FIFO.
func (f *F) Overflows() uint64 { return f.overflows }

// MaxDepth reports the high-water mark.
func (f *F) MaxDepth() int { return f.maxDepth }

// Push appends v; it reports false (and counts an overflow) when full.
func (f *F) Push(v uint64) bool {
	if f.Full() {
		f.overflows++
		return false
	}
	f.buf[f.tail] = v
	f.tail = (f.tail + 1) % len(f.buf)
	f.n++
	if f.n > f.maxDepth {
		f.maxDepth = f.n
	}
	return true
}

// Pop removes the oldest word; ok is false when empty.
func (f *F) Pop() (v uint64, ok bool) {
	if f.n == 0 {
		return 0, false
	}
	v = f.buf[f.head]
	f.head = (f.head + 1) % len(f.buf)
	f.n--
	return v, true
}

// Reset empties the FIFO (overflow statistics are preserved).
func (f *F) Reset() {
	f.head, f.tail, f.n = 0, 0, 0
}
