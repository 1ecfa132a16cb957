package hwcore

// The three grayscale image-processing datapaths of §3.2 and §4.2. Pixels
// are 8 bits, packed big-endian (first pixel in the most significant byte).
//
// Brightness processes whole words of pixels from one source image. Blend
// and Fade combine two source images: each input word carries pixels from
// both images (first half from A, second half from B), which is the "data
// must be combined by the CPU before being sent" overhead the paper
// highlights; output pixels accumulate into full words before they are
// readable ("the resulting pixels are packed in groups of four, before
// being read back by the CPU").

// outQueue is a small helper for stream outputs feeding the dock FIFO. It
// pops from a head index and, once empty, starts over at the front of its
// array, so a queue drained as fast as it fills reuses one array; a core's
// Reset empties it and keeps the array too.
type outQueue struct {
	q    []uint64
	head int
}

func (o *outQueue) reset() { o.q, o.head = o.q[:0], 0 }

func (o *outQueue) push(v uint64) { o.q = append(o.q, v) }
func (o *outQueue) pop() (uint64, bool) {
	if o.head == len(o.q) {
		return 0, false
	}
	v := o.q[o.head]
	if o.head++; o.head == len(o.q) {
		o.reset()
	}
	return v, true
}

// Brightness adds a signed constant to every pixel with saturation
// (saturating add, four pixels per 32-bit transfer).
//
// Dock protocol: word 0 = delta as signed 16-bit value in the low bits;
// then every write carries size pixels; Read returns the last result word;
// the stream output queues one word per input word.
type Brightness struct {
	cfg   bool
	delta int
	last  uint64
	out   outQueue
}

// NewBrightness returns a reset brightness core.
func NewBrightness() *Brightness { b := &Brightness{}; b.Reset(); return b }

// Name implements hw.Core.
func (b *Brightness) Name() string { return "brightness" }

// Reset implements hw.Core.
func (b *Brightness) Reset() {
	*b = Brightness{out: b.out}
	b.out.reset()
}

// CyclesPerWord implements hw.Core: one word per cycle (parallel adders).
func (b *Brightness) CyclesPerWord() int { return 1 }

// Write implements hw.Core.
func (b *Brightness) Write(v uint64, size int) {
	if !b.cfg {
		b.cfg = true
		b.delta = int(int16(v))
		return
	}
	var out uint64
	for i := 0; i < size; i++ {
		shift := uint(8 * (size - 1 - i))
		px := int(v>>shift&0xFF) + b.delta
		if px < 0 {
			px = 0
		}
		if px > 255 {
			px = 255
		}
		out |= uint64(px) << shift
	}
	b.last = out
	b.out.push(out)
}

// Read implements hw.Core.
func (b *Brightness) Read() uint64 { return b.last }

// PopOut implements hw.Core.
func (b *Brightness) PopOut() (uint64, bool) { return b.out.pop() }

// combiner is the shared machinery of Blend and Fade: consume words holding
// pixels of both images, emit packed result words.
type combiner struct {
	apply func(a, b int) int
	// acc packs produced pixels until a full output word (4 pixels for the
	// 32-bit channel, 8 for 64-bit) is available.
	acc     uint64
	accN    int
	accGoal int
	last    uint64
	out     outQueue
}

func (c *combiner) write(v uint64, size int) {
	half := size / 2
	if c.accGoal == 0 {
		c.accGoal = size // first write fixes the packing width
	}
	for i := 0; i < half; i++ {
		a := int(v >> uint(8*(size-1-i)) & 0xFF)
		b := int(v >> uint(8*(half-1-i)) & 0xFF)
		px := c.apply(a, b)
		c.acc = c.acc<<8 | uint64(px)
		c.accN++
		if c.accN == c.accGoal {
			c.last = c.acc
			c.out.push(c.acc)
			c.acc, c.accN = 0, 0
		}
	}
}

// Blend is the additive blending core: out = sat(A + B), two output pixels
// per transfer, packed in groups of four before read-back.
type Blend struct{ c combiner }

// NewBlend returns a reset blending core.
func NewBlend() *Blend { b := &Blend{}; b.Reset(); return b }

// Name implements hw.Core.
func (b *Blend) Name() string { return "blend" }

// Reset implements hw.Core.
func (b *Blend) Reset() {
	b.c = combiner{apply: func(a, bb int) int {
		v := a + bb
		if v > 255 {
			v = 255
		}
		return v
	}, out: b.c.out}
	b.c.out.reset()
}

// CyclesPerWord implements hw.Core.
func (b *Blend) CyclesPerWord() int { return 1 }

// Write implements hw.Core.
func (b *Blend) Write(v uint64, size int) { b.c.write(v, size) }

// Read implements hw.Core.
func (b *Blend) Read() uint64 { return b.c.last }

// PopOut implements hw.Core.
func (b *Blend) PopOut() (uint64, bool) { return b.c.out.pop() }

// Fade combines two images as (A-B)*f + B with an 8.8 fixed-point factor:
// the fade-in-fade-out effect is produced by sweeping f (§3.2).
type Fade struct {
	cfg bool
	f   int
	c   combiner
}

// NewFade returns a reset fade core.
func NewFade() *Fade { f := &Fade{}; f.Reset(); return f }

// Name implements hw.Core.
func (f *Fade) Name() string { return "fade" }

// Reset implements hw.Core.
func (f *Fade) Reset() {
	*f = Fade{c: combiner{out: f.c.out}}
	f.c.apply = func(a, b int) int {
		return b + ((a-b)*f.f)>>8
	}
	f.c.out.reset()
}

// CyclesPerWord implements hw.Core: the multipliers pipeline one word per
// cycle.
func (f *Fade) CyclesPerWord() int { return 1 }

// Write implements hw.Core: the first word after reset is the factor f in
// [0, 256].
func (f *Fade) Write(v uint64, size int) {
	if !f.cfg {
		f.cfg = true
		f.f = int(v & 0x1FF)
		return
	}
	f.c.write(v, size)
}

// Read implements hw.Core.
func (f *Fade) Read() uint64 { return f.c.last }

// PopOut implements hw.Core.
func (f *Fade) PopOut() (uint64, bool) { return f.c.out.pop() }

// Passthrough is a trivial diagnostic core: output equals input. It is used
// by the transfer-time benchmarks (Tables 2, 7 and 8), which measure pure
// data movement.
type Passthrough struct {
	last uint64
	out  outQueue
}

// NewPassthrough returns a reset passthrough core.
func NewPassthrough() *Passthrough { return &Passthrough{} }

// Name implements hw.Core.
func (p *Passthrough) Name() string { return "passthrough" }

// Reset implements hw.Core.
func (p *Passthrough) Reset() {
	*p = Passthrough{out: p.out}
	p.out.reset()
}

// CyclesPerWord implements hw.Core.
func (p *Passthrough) CyclesPerWord() int { return 1 }

// Write implements hw.Core.
func (p *Passthrough) Write(v uint64, size int) {
	p.last = v
	p.out.push(v)
}

// Read implements hw.Core.
func (p *Passthrough) Read() uint64 { return p.last }

// PopOut implements hw.Core.
func (p *Passthrough) PopOut() (uint64, bool) { return p.out.pop() }
