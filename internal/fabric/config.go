package fabric

import (
	"bytes"
	"fmt"
	"slices"
	"unsafe"
)

// ConfigMemory holds the current contents of the device's configuration
// memory, frame by frame. It is the state that partial bitstreams mutate and
// that behavioural binding (hashing a region's frames) observes.
type ConfigMemory struct {
	dev    *Device
	frames [][]uint32
	writes uint64
	// epoch counts frame writes and bit flips; stamp[i] is its value at
	// frame i's latest one, so a reader that noted the epoch can tell
	// which of the frames it covers have changed since.
	epoch uint64
	stamp []uint64
	// static and owned are the guarded regions' Bands: per Column, the
	// word ranges of its frames that no guarded region owns (the static
	// design) and the rest, the regions' row bands. Both are nil until
	// Guard, and guards counts its calls.
	// disturbed records that a frame write or bit flip has changed a
	// static word since.
	static, owned [][]Span
	guards        uint64
	disturbed     bool
	// shared marks the frames an Overlay still shares with the memory it
	// was made from; nil when it shares none.
	shared []bool
}

// NewConfigMemory returns the configuration memory of an erased device
// (all-zero frames).
func NewConfigMemory(d *Device) *ConfigMemory {
	frames := make([][]uint32, d.NumFrames())
	flen := d.FrameLen()
	backing := make([]uint32, len(frames)*flen)
	for i := range frames {
		frames[i], backing = backing[:flen:flen], backing[flen:]
	}
	return &ConfigMemory{dev: d, frames: frames, stamp: make([]uint64, len(frames))}
}

// Device returns the device this memory belongs to.
func (cm *ConfigMemory) Device() *Device { return cm.dev }

// FrameWrites reports how many frame writes have been applied (configuration
// activity statistic).
func (cm *ConfigMemory) FrameWrites() uint64 { return cm.writes }

// WriteFrame replaces the frame at far with data (which must be exactly one
// frame long).
func (cm *ConfigMemory) WriteFrame(far FAR, data []uint32) error {
	if len(data) != cm.dev.FrameLen() {
		return fmt.Errorf("fabric: frame write to %v with %d words, frame length is %d",
			far, len(data), cm.dev.FrameLen())
	}
	i, err := cm.dev.FrameIndex(far)
	if err != nil {
		return err
	}
	f := cm.frames[i]
	if cm.static != nil && !cm.disturbed {
		for _, s := range cm.static[cm.dev.Column(i)] {
			if !wordsEqual(f[s.Lo:s.Hi], data[s.Lo:s.Hi]) {
				cm.disturbed = true
				break
			}
		}
	}
	if cm.shared != nil && cm.shared[i] {
		f = make([]uint32, len(f))
		cm.frames[i], cm.shared[i] = f, false
	}
	copy(f, data)
	cm.writes++
	cm.touch(i)
	return nil
}

// wordsEqual reports whether a and b hold the same words. It compares their
// memory as bytes, which bytes.Equal hands to the runtime's memequal: over
// a frame's static range several times faster than a loop over words.
func wordsEqual(a, b []uint32) bool {
	return len(a) == len(b) && bytes.Equal(wordBytes(a), wordBytes(b))
}

// wordBytes is the memory of ws, as bytes.
func wordBytes(ws []uint32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(ws))), 4*len(ws))
}

// touch stamps frame i with a new epoch.
func (cm *ConfigMemory) touch(i int) {
	cm.epoch++
	cm.stamp[i] = cm.epoch
}

// Epoch returns the current modification epoch: the count of frame writes
// and bit flips so far.
func (cm *ConfigMemory) Epoch() uint64 { return cm.epoch }

// ChangedSince reports whether a frame write or bit flip has touched any
// frame with index in [lo, hi) after epoch. A write counts even when it
// stores the frame's old content.
func (cm *ConfigMemory) ChangedSince(lo, hi int, epoch uint64) bool {
	for _, st := range cm.stamp[lo:hi] {
		if st > epoch {
			return true
		}
	}
	return false
}

// ReadFrame returns a copy of the frame at far (configuration readback).
func (cm *ConfigMemory) ReadFrame(far FAR) ([]uint32, error) {
	return cm.AppendFrame(nil, far, 0, cm.dev.FrameLen())
}

// AppendFrame appends words [lo, hi) of the frame at far to dst and
// returns the extended slice: a readback of part of a frame without a copy
// of the whole.
func (cm *ConfigMemory) AppendFrame(dst []uint32, far FAR, lo, hi int) ([]uint32, error) {
	i, err := cm.dev.FrameIndex(far)
	if err != nil {
		return dst, err
	}
	if lo < 0 || hi < lo || hi > len(cm.frames[i]) {
		return dst, fmt.Errorf("fabric: words [%d,%d) outside the %d-word frame %v", lo, hi, len(cm.frames[i]), far)
	}
	return append(dst, cm.frames[i][lo:hi]...), nil
}

// FlipBit inverts a single configuration bit in place — the soft-error
// model of the fault-injection campaign (an SEU flips one SRAM cell).
// Unlike WriteFrame it does not count as configuration activity: nothing
// streamed through the configuration port.
func (cm *ConfigMemory) FlipBit(far FAR, word int, bit uint) error {
	i, err := cm.dev.FrameIndex(far)
	if err != nil {
		return err
	}
	if word < 0 || word >= cm.dev.FrameLen() || bit > 31 {
		return fmt.Errorf("fabric: bit (%d,%d) outside the %d-word frame geometry",
			word, bit, cm.dev.FrameLen())
	}
	if cm.static != nil {
		for _, s := range cm.static[cm.dev.Column(i)] {
			if word >= s.Lo && word < s.Hi {
				cm.disturbed = true
			}
		}
	}
	if cm.shared != nil && cm.shared[i] {
		cm.frames[i], cm.shared[i] = slices.Clone(cm.frames[i]), false
	}
	cm.frames[i][word] ^= 1 << bit
	cm.touch(i)
	return nil
}

// Clone returns a deep copy of the frames — used to snapshot the static
// design baseline after the initial full configuration. The copy carries
// no guard.
func (cm *ConfigMemory) Clone() *ConfigMemory {
	out := NewConfigMemory(cm.dev)
	for i, f := range cm.frames {
		copy(out.frames[i], f)
	}
	out.writes = cm.writes
	return out
}

// Overlay returns a memory with this one's content that shares its frames
// until it changes them: its first write or bit flip of a frame copies the
// frame, so the overlay never changes this memory, and only the frames it
// has changed take memory of their own. Like Clone it carries no guard.
// This memory must not change while an overlay of it is in use: the
// overlay reads every frame it has not changed from here.
func (cm *ConfigMemory) Overlay() *ConfigMemory {
	shared := make([]bool, len(cm.frames))
	for i := range shared {
		shared[i] = true
	}
	return &ConfigMemory{dev: cm.dev, frames: slices.Clone(cm.frames), writes: cm.writes,
		stamp: make([]uint64, len(cm.frames)), shared: shared}
}

// The content binding hash is 64-bit FNV-1a taken over whole 32-bit words
// instead of bytes, in two levels: each frame's band words hash to a frame
// hash, and the frame hashes fold, in frame order, into the region hash. It
// is not a cryptographic hash; it binds configuration contents to
// behavioural models.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvFold folds one value into the hash. Each step is a bijection of the
// state for a fixed value and injective in the value for a fixed state, so
// changing any single value of a sequence changes its hash: a changed band
// word changes its frame hash, and a changed frame hash the region hash.
func fnvFold(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// fnvWord folds one whole 32-bit word into the hash.
func fnvWord(h uint64, w uint32) uint64 { return fnvFold(h, uint64(w)) }

// bandHash is the frame hash of one frame's band words.
func bandHash(band []uint32) uint64 {
	h := uint64(fnvOffset)
	for _, w := range band {
		h = fnvWord(h, w)
	}
	return h
}

// bandHashes sets sums[k] to the frame hash of words [lo, hi) of frame
// first+k, four frames per bandHash4 pass.
func (cm *ConfigMemory) bandHashes(sums []uint64, first, lo, hi int) {
	k := 0
	for ; k+4 <= len(sums); k += 4 {
		fs := cm.frames[first+k : first+k+4]
		sums[k], sums[k+1], sums[k+2], sums[k+3] = bandHash4(fs[0][lo:hi], fs[1][lo:hi], fs[2][lo:hi], fs[3][lo:hi])
	}
	for ; k < len(sums); k++ {
		sums[k] = bandHash(cm.frames[first+k][lo:hi])
	}
}

// bandHash4 returns the frame hashes of four equally long bands. It runs
// their four multiply-xor chains in one loop, so the multiply latency that
// bounds one chain overlaps; each result is bandHash's. It stays a call of
// its own: inlined, the caller's variables crowd the chains out of their
// registers.
func bandHash4(b0, b1, b2, b3 []uint32) (h0, h1, h2, h3 uint64) {
	b1, b2, b3 = b1[:len(b0)], b2[:len(b0)], b3[:len(b0)]
	h0, h1, h2, h3 = fnvOffset, fnvOffset, fnvOffset, fnvOffset
	for j, w := range b0 {
		h0 = fnvWord(h0, w)
		h1 = fnvWord(h1, b1[j])
		h2 = fnvWord(h2, b2[j])
		h3 = fnvWord(h3, b3[j])
	}
	return h0, h1, h2, h3
}

// RegionHash hashes the configuration bits owned by the region: for every
// enclosed CLB column, the frame words of the row band across all frames of
// the column; for every enclosed BRAM column, the same band of its content
// frames. Each frame's band hashes to a frame hash, and the frame hashes
// fold in that order. The hash identifies which circuit is currently
// configured in the region.
func (cm *ConfigMemory) RegionHash(r Region) uint64 {
	lo, hi := cm.dev.RowWordRange(r.Row0, r.H)
	h := uint64(fnvOffset)
	var sums [4]uint64
	for _, run := range cm.dev.Frames(r) {
		for i := run.Lo; i < run.Hi; i += len(sums) {
			part := sums[:min(len(sums), run.Hi-i)]
			cm.bandHashes(part, i, lo, hi)
			for _, s := range part {
				h = fnvFold(h, s)
			}
		}
	}
	return h
}

// RegionHasher keeps a region's frame hashes and the epoch they were taken
// at, so that hashing the region again after a configuration stream
// rehashes only the frames the stream wrote. Its state is one frame hash
// per region frame and, once the region is read back, a snapshot of the
// band words each frame hash was taken from.
type RegionHasher struct {
	cm     *ConfigMemory
	runs   []Span // the region's frames (Device.Frames)
	lo, hi int    // the row band's words
	sums   []uint64
	// snap holds, one row of hi-lo words per frame in sums order, the band
	// words each frame hash was taken from. It is nil until the first
	// Read, so a region that is never read back carries none.
	snap []uint32
	seen uint64
}

// Hasher returns a hasher of the region in this memory. It reads every
// band word once, so it starts from the content and not from the frame
// stamps: a Clone's or an Overlay's frames carry none.
func (cm *ConfigMemory) Hasher(r Region) *RegionHasher {
	rh := &RegionHasher{cm: cm, runs: cm.dev.Frames(r)}
	rh.lo, rh.hi = cm.dev.RowWordRange(r.Row0, r.H)
	n := 0
	for _, run := range rh.runs {
		n += run.Len()
	}
	rh.sums = make([]uint64, n)
	rh.rehashAll()
	rh.fold()
	return rh
}

// Hash returns RegionHash of the region's current content. It rehashes the
// frames a frame write or bit flip stamped since the hasher's last Hash or
// Read, and trusts its frame hashes of the others.
func (rh *RegionHasher) Hash() uint64 {
	k := 0 // the sums index of the run's first frame
	for _, run := range rh.runs {
		stamp := rh.cm.stamp[run.Lo:run.Hi]
		for i := 0; i < len(stamp); {
			if stamp[i] <= rh.seen {
				i++
				continue
			}
			j := i + 1
			for j < len(stamp) && stamp[j] > rh.seen {
				j++
			}
			rh.rehash(k+i, k+j, run.Lo+i)
			i = j
		}
		k += len(stamp)
	}
	return rh.fold()
}

// Read returns RegionHash of the region's current content, reading every
// band word whatever the stamps say: a readback of the region. It compares
// each frame's band with the words its frame hash was taken from and
// rehashes the frames whose band differs.
func (rh *RegionHasher) Read() uint64 {
	if rh.snap == nil {
		rh.snap = make([]uint32, len(rh.sums)*(rh.hi-rh.lo))
		rh.rehashAll()
		return rh.fold()
	}
	k := 0
	for _, run := range rh.runs {
		frames := rh.cm.frames[run.Lo:run.Hi]
		for i := 0; i < len(frames); {
			if rh.holds(k+i, frames[i]) {
				i++
				continue
			}
			j := i + 1
			for j < len(frames) && !rh.holds(k+j, frames[j]) {
				j++
			}
			rh.rehash(k+i, k+j, run.Lo+i)
			i = j
		}
		k += len(frames)
	}
	return rh.fold()
}

// holds reports whether snapshot row k holds frame's band words.
func (rh *RegionHasher) holds(k int, frame []uint32) bool {
	w := rh.hi - rh.lo
	return wordsEqual(frame[rh.lo:rh.hi], rh.snap[k*w:(k+1)*w])
}

// rehashAll rehashes every frame of the region.
func (rh *RegionHasher) rehashAll() {
	k := 0
	for _, run := range rh.runs {
		rh.rehash(k, k+run.Len(), run.Lo)
		k += run.Len()
	}
}

// rehash sets the frame hashes sums[a:b], those of the frames from first
// on, and their snapshot rows once there is a snapshot: a row always holds
// the words its frame hash was taken from.
func (rh *RegionHasher) rehash(a, b, first int) {
	rh.cm.bandHashes(rh.sums[a:b], first, rh.lo, rh.hi)
	if rh.snap == nil {
		return
	}
	w := rh.hi - rh.lo
	for k, f := range rh.cm.frames[first : first+b-a] {
		copy(rh.snap[(a+k)*w:(a+k+1)*w], f[rh.lo:rh.hi])
	}
}

// fold notes the epoch the frame hashes now stand for and folds them into
// the region hash.
func (rh *RegionHasher) fold() uint64 {
	rh.seen = rh.cm.epoch
	h := uint64(fnvOffset)
	for _, s := range rh.sums {
		h = fnvFold(h, s)
	}
	return h
}

// Guard marks every frame word outside the given regions' row bands as
// static design and clears Disturbed. The static and owned word ranges of
// every column are Bands', shared by all its frames. From then on a frame
// write or bit flip that changes a static word sets Disturbed: the §2.2
// hazard of a partial configuration rewriting static rows that share its
// full-height frames (the hazard BitLinker exists to prevent).
func (cm *ConfigMemory) Guard(regions ...Region) {
	cm.static, cm.owned = cm.dev.Bands(regions...)
	cm.guards++
	cm.disturbed = false
}

// Owned returns the word ranges of frame i that the guarded regions own,
// the complement of its static ranges: none for a frame no region
// encloses, nil before Guard. The ranges are shared; callers must not
// change them.
func (cm *ConfigMemory) Owned(i int) []Span {
	if cm.owned == nil {
		return nil
	}
	return cm.owned[cm.dev.Column(i)]
}

// GuardEpoch counts the calls of Guard. The static design, its
// Guard-time content and Owned change only when it does.
func (cm *ConfigMemory) GuardEpoch() uint64 { return cm.guards }

// Guarded reports whether Guard has marked the static design.
func (cm *ConfigMemory) Guarded() bool { return cm.static != nil }

// Disturbed reports whether a frame write or bit flip has changed a static
// word since Guard. It is sticky: writing the old value back does not
// clear it.
func (cm *ConfigMemory) Disturbed() bool { return cm.disturbed }
