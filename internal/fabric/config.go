package fabric

import "fmt"

// ConfigMemory holds the current contents of the device's configuration
// memory, frame by frame. It is the state that partial bitstreams mutate and
// that behavioural binding (hashing a region's frames) observes.
type ConfigMemory struct {
	dev    *Device
	frames [][]uint32
	writes uint64
	// epoch counts frame writes and bit flips; stamp[i] is its value at
	// frame i's latest one, so a reader that noted the epoch can tell
	// whether any frame it covers has changed since.
	epoch uint64
	stamp []uint64
	// owned marks, per frame, the words some guarded region owns; every
	// other word is static design. nil until Guard. disturbed records that
	// a frame write or bit flip has changed a static word since.
	owned     [][]bool
	disturbed bool
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
	if cm.owned != nil && !cm.disturbed {
		owned := cm.owned[i]
		for wi, w := range cm.frames[i] {
			if !owned[wi] && w != data[wi] {
				cm.disturbed = true
				break
			}
		}
	}
	copy(cm.frames[i], data)
	cm.writes++
	cm.touch(i)
	return nil
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
	if cm.owned != nil && !cm.owned[i][word] {
		cm.disturbed = true
	}
	cm.frames[i][word] ^= 1 << bit
	cm.touch(i)
	return nil
}

// frame returns the live frame slice (internal use).
func (cm *ConfigMemory) frame(far FAR) []uint32 {
	i, err := cm.dev.FrameIndex(far)
	if err != nil {
		panic(err)
	}
	return cm.frames[i]
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

// The content binding hash is 64-bit FNV-1a taken over whole 32-bit words
// instead of bytes. It is not a cryptographic hash; it binds configuration
// contents to behavioural models.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWord folds one whole 32-bit word into the hash. Each step is a
// bijection of the state for a fixed word and injective in the word for a
// fixed state, so changing any single word of a sequence changes its hash.
func fnvWord(h uint64, w uint32) uint64 { return (h ^ uint64(w)) * fnvPrime }

// RegionHash hashes the configuration bits owned by the region: for every
// enclosed CLB column, the frame words of the row band across all frames of
// the column; for every enclosed BRAM column, the same band of its content
// frames. The hash identifies which circuit is currently configured in the
// region.
func (cm *ConfigMemory) RegionHash(r Region) uint64 {
	h := uint64(fnvOffset)
	lo, hi := cm.dev.RowWordRange(r.Row0, r.H)
	for col := r.Col0; col < r.Col0+r.W; col++ {
		for minor := 0; minor < FramesPerCLBColumn; minor++ {
			f := cm.frame(FAR{Block: BlockCLB, Major: col, Minor: minor})
			for _, w := range f[lo:hi] {
				h = fnvWord(h, w)
			}
		}
	}
	for _, bcol := range cm.dev.BRAMColumns(r) {
		for minor := 0; minor < FramesPerBRAMColumn; minor++ {
			f := cm.frame(FAR{Block: BlockBRAM, Major: bcol, Minor: minor})
			for _, w := range f[lo:hi] {
				h = fnvWord(h, w)
			}
		}
	}
	return h
}

// Guard marks every frame word outside the given regions' row bands as
// static design and clears Disturbed. A region owns its row band of every
// frame of the columns it encloses; the owned words of a column are worked
// out once, shared by all its frames. From then on a frame write or bit
// flip that changes a static word sets Disturbed: the §2.2 hazard of a
// partial configuration rewriting static rows that share its full-height
// frames (the hazard BitLinker exists to prevent).
func (cm *ConfigMemory) Guard(regions ...Region) {
	cm.owned = make([][]bool, 0, len(cm.frames))
	// Columns in frame index order: CLB columns, then BRAM columns.
	guardColumn := func(b BlockType, encloses func(Region) bool) {
		owned := make([]bool, cm.dev.FrameLen())
		for _, r := range regions {
			if encloses(r) {
				lo, hi := cm.dev.RowWordRange(r.Row0, r.H)
				for wi := lo; wi < hi; wi++ {
					owned[wi] = true
				}
			}
		}
		for range FramesFor(b) {
			cm.owned = append(cm.owned, owned)
		}
	}
	for col := 0; col < cm.dev.Cols; col++ {
		guardColumn(BlockCLB, func(r Region) bool { return r.ContainsCol(col) })
	}
	for _, pos := range cm.dev.BRAMColPos {
		guardColumn(BlockBRAM, func(r Region) bool { return r.enclosesBRAM(pos) })
	}
	cm.disturbed = false
}

// Guarded reports whether Guard has marked the static design.
func (cm *ConfigMemory) Guarded() bool { return cm.owned != nil }

// Disturbed reports whether a frame write or bit flip has changed a static
// word since Guard. It is sticky: writing the old value back does not
// clear it.
func (cm *ConfigMemory) Disturbed() bool { return cm.disturbed }
