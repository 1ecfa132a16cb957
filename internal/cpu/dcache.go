package cpu

// dcache is the D-cache timing model: set-associative tag array with LRU
// replacement and write-back, write-allocate policy. It tracks only tags —
// data lives in the simulated memories, so the cache influences time, never
// values.
type dcache struct {
	lineBits uint
	setBits  uint
	sets     [][]dline
	useClock uint64
}

type dline struct {
	tag     uint32
	valid   bool
	dirty   bool
	lastUse uint64
}

func newDCache(size, ways, line int) *dcache {
	if size <= 0 || ways <= 0 || line <= 0 || size%(ways*line) != 0 {
		panic("cpu: bad cache geometry")
	}
	nsets := size / (ways * line)
	lineBits := uint(0)
	for 1<<lineBits < line {
		lineBits++
	}
	setBits := uint(0)
	for 1<<setBits < nsets {
		setBits++
	}
	if 1<<lineBits != line || 1<<setBits != nsets {
		panic("cpu: cache geometry must be a power of two")
	}
	sets := make([][]dline, nsets)
	backing := make([]dline, nsets*ways)
	for i := range sets {
		sets[i], backing = backing[:ways:ways], backing[ways:]
	}
	return &dcache{lineBits: lineBits, setBits: setBits, sets: sets}
}

func (d *dcache) index(addr uint32) (set int, tag uint32) {
	return int(addr >> d.lineBits & (1<<d.setBits - 1)), addr >> (d.lineBits + d.setBits)
}

// access performs a lookup, allocating on miss. It returns whether the
// access hit, and on miss the address of the victim line and whether it was
// dirty (requiring write-back).
func (d *dcache) access(addr uint32, write bool) (hit bool, victimAddr uint32, victimDirty bool) {
	d.useClock++
	set, tag := d.index(addr)
	lines := d.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lastUse = d.useClock
			if write {
				lines[i].dirty = true
			}
			return true, 0, false
		}
	}
	// Miss: choose LRU victim (preferring invalid lines).
	victim := 0
	for i := range lines {
		if !lines[i].valid {
			victim = i
			break
		}
		if lines[i].lastUse < lines[victim].lastUse {
			victim = i
		}
	}
	v := &lines[victim]
	victimDirty = v.valid && v.dirty
	victimAddr = d.lineAddr(v.tag, set)
	v.tag, v.valid, v.dirty, v.lastUse = tag, true, write, d.useClock
	return false, victimAddr, victimDirty
}

func (d *dcache) lineAddr(tag uint32, set int) uint32 {
	return tag<<(d.lineBits+d.setBits) | uint32(set)<<d.lineBits
}

// flushLine writes back (if dirty) and invalidates the line holding addr.
// It reports whether a write-back was needed.
func (d *dcache) flushLine(addr uint32) bool {
	set, tag := d.index(addr)
	lines := d.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			dirty := lines[i].dirty
			lines[i].valid, lines[i].dirty = false, false
			return dirty
		}
	}
	return false
}

// invalidateLine discards the line holding addr without write-back.
func (d *dcache) invalidateLine(addr uint32) {
	set, tag := d.index(addr)
	lines := d.sets[set]
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].valid, lines[i].dirty = false, false
			return
		}
	}
}
