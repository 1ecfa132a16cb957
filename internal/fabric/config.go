package fabric

import "fmt"

// ConfigMemory holds the current contents of the device's configuration
// memory, frame by frame. It is the state that partial bitstreams mutate and
// that behavioural binding (hashing a region's frames) observes.
type ConfigMemory struct {
	dev    *Device
	frames [][]uint32
	writes uint64
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
	return &ConfigMemory{dev: d, frames: frames}
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
	copy(cm.frames[i], data)
	cm.writes++
	return nil
}

// ReadFrame returns a copy of the frame at far (configuration readback).
func (cm *ConfigMemory) ReadFrame(far FAR) ([]uint32, error) {
	i, err := cm.dev.FrameIndex(far)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, len(cm.frames[i]))
	copy(out, cm.frames[i])
	return out, nil
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
	cm.frames[i][word] ^= 1 << bit
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

// Clone returns a deep copy — used to snapshot the static design baseline
// after the initial full configuration.
func (cm *ConfigMemory) Clone() *ConfigMemory {
	out := NewConfigMemory(cm.dev)
	for i, f := range cm.frames {
		copy(out.frames[i], f)
	}
	out.writes = cm.writes
	return out
}

// fnv1a64 is the 64-bit FNV-1a hash, used for content binding. It is not a
// cryptographic hash; it binds configuration contents to behavioural models.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvWord(h uint64, w uint32) uint64 {
	for shift := 0; shift < 32; shift += 8 {
		h ^= uint64(w >> shift & 0xFF)
		h *= fnvPrime
	}
	return h
}

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

// StaticHash hashes every configuration bit not owned by any of the given
// regions. The platform uses it to detect partial configurations that
// disturb the static design (the hazard BitLinker exists to prevent). A
// region owns its row band of every frame of the columns it encloses; the
// owned words of a column are worked out once, then every frame of the
// column is hashed in word order with them left out.
func (cm *ConfigMemory) StaticHash(regions ...Region) uint64 {
	h := uint64(fnvOffset)
	owned := make([]bool, cm.dev.FrameLen())
	hashColumn := func(b BlockType, major int, encloses func(Region) bool) {
		clear(owned)
		for _, r := range regions {
			if encloses(r) {
				lo, hi := cm.dev.RowWordRange(r.Row0, r.H)
				for wi := lo; wi < hi; wi++ {
					owned[wi] = true
				}
			}
		}
		for minor := 0; minor < FramesFor(b); minor++ {
			for wi, w := range cm.frame(FAR{Block: b, Major: major, Minor: minor}) {
				if !owned[wi] {
					h = fnvWord(h, w)
				}
			}
		}
	}
	for col := 0; col < cm.dev.Cols; col++ {
		hashColumn(BlockCLB, col, func(r Region) bool { return r.ContainsCol(col) })
	}
	for bcol, pos := range cm.dev.BRAMColPos {
		hashColumn(BlockBRAM, bcol, func(r Region) bool { return r.enclosesBRAM(pos) })
	}
	return h
}
