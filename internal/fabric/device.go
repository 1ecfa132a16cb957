// Package fabric models the reconfigurable fabric of Virtex-II Pro style
// platform FPGAs at the granularity the paper's implementation issues live
// at: a CLB site array with hard-block displacement, BRAM columns, and a
// frame-addressed configuration memory in which every frame spans the full
// height of the device.
//
// The package is the one place a region becomes frames and frame words:
// Device.Frames gives the frame runs whose row band a region owns, and
// Device.Bands splits every column's words into the static ranges and the
// ranges the regions own. The region hash, the static-design guard, the
// assembler and the manager's fault space all read these two answers.
//
// The geometry constants of the two concrete devices are chosen so that the
// published capacities hold exactly: XC2VP7 has 4928 slices and 44 BRAMs,
// XC2VP30 has 13696 slices and 136 BRAMs, with the PowerPC 405 hard blocks
// displacing CLB sites.
package fabric

import (
	"fmt"
	"sort"
)

// BlockType selects a configuration block address space, as in the Virtex-II
// frame address register.
type BlockType uint8

const (
	// BlockCLB addresses CLB (and interconnect) columns.
	BlockCLB BlockType = 0
	// BlockBRAM addresses block-RAM content columns.
	BlockBRAM BlockType = 1
)

func (b BlockType) String() string {
	switch b {
	case BlockCLB:
		return "CLB"
	case BlockBRAM:
		return "BRAM"
	default:
		return fmt.Sprintf("BlockType(%d)", uint8(b))
	}
}

// Frame geometry. A frame configures one vertical stripe of a column over the
// full device height: WordsPerRow words of configuration per CLB row plus a
// fixed overhead (clock row and padding), as in Virtex-II.
const (
	// FramesPerCLBColumn is the number of frames in a CLB column.
	FramesPerCLBColumn = 22
	// FramesPerBRAMColumn is the number of frames in a BRAM content column.
	FramesPerBRAMColumn = 64
	// WordsPerRow is the number of 32-bit frame words holding the bits of
	// one CLB row within one frame.
	WordsPerRow = 3
	// frameOverheadWords covers the clock row and pad words of each frame.
	frameOverheadWords = 3
)

// HardBlock is an embedded block (a PowerPC 405 core) that displaces CLB
// sites from the array.
type HardBlock struct {
	Name string
	Row0 int // first displaced row
	Col0 int // first displaced column
	H    int // rows displaced
	W    int // columns displaced
}

// Contains reports whether the CLB site (row, col) is displaced by the block.
func (h HardBlock) Contains(row, col int) bool {
	return row >= h.Row0 && row < h.Row0+h.H && col >= h.Col0 && col < h.Col0+h.W
}

// Device describes one FPGA: the CLB site grid, BRAM columns, embedded hard
// blocks and configuration frame geometry.
type Device struct {
	Name       string
	Rows, Cols int // CLB site grid dimensions
	// BRAMColPos holds, for each BRAM column, the CLB column index it sits
	// immediately to the right of. Must be sorted ascending.
	BRAMColPos []int
	// BRAMsPerCol is the number of 18 kbit block RAMs in each BRAM column.
	BRAMsPerCol int
	HardBlocks  []HardBlock
	SpeedGrade  int
}

// Validate checks internal consistency of the device description.
func (d *Device) Validate() error {
	if d.Rows <= 0 || d.Cols <= 0 {
		return fmt.Errorf("fabric: %s: non-positive grid %dx%d", d.Name, d.Rows, d.Cols)
	}
	if !sort.IntsAreSorted(d.BRAMColPos) {
		return fmt.Errorf("fabric: %s: BRAM column positions not sorted", d.Name)
	}
	for _, p := range d.BRAMColPos {
		if p < 0 || p >= d.Cols {
			return fmt.Errorf("fabric: %s: BRAM column position %d out of range", d.Name, p)
		}
	}
	for _, hb := range d.HardBlocks {
		if hb.Row0 < 0 || hb.Col0 < 0 || hb.Row0+hb.H > d.Rows || hb.Col0+hb.W > d.Cols {
			return fmt.Errorf("fabric: %s: hard block %s out of bounds", d.Name, hb.Name)
		}
	}
	return nil
}

// SiteDisplaced reports whether the CLB site at (row, col) is displaced by a
// hard block.
func (d *Device) SiteDisplaced(row, col int) bool {
	for _, hb := range d.HardBlocks {
		if hb.Contains(row, col) {
			return true
		}
	}
	return false
}

// CLBCount returns the number of usable CLBs (sites minus hard-block
// displacement).
func (d *Device) CLBCount() int {
	displaced := 0
	for _, hb := range d.HardBlocks {
		displaced += hb.H * hb.W
	}
	return d.Rows*d.Cols - displaced
}

// SliceCount returns the number of slices (4 per CLB on Virtex-II Pro).
func (d *Device) SliceCount() int { return 4 * d.CLBCount() }

// LUTCount returns the number of 4-input LUTs (2 per slice).
func (d *Device) LUTCount() int { return 2 * d.SliceCount() }

// FFCount returns the number of flip-flops (2 per slice).
func (d *Device) FFCount() int { return 2 * d.SliceCount() }

// BRAMCount returns the number of 18 kbit block RAMs.
func (d *Device) BRAMCount() int { return len(d.BRAMColPos) * d.BRAMsPerCol }

// FrameLen returns the length of every configuration frame, in 32-bit words.
func (d *Device) FrameLen() int { return frameOverheadWords + WordsPerRow*d.Rows }

// NumFrames returns the total number of configuration frames of the device.
func (d *Device) NumFrames() int {
	return d.Cols*FramesPerCLBColumn + len(d.BRAMColPos)*FramesPerBRAMColumn
}

// ConfigBits returns the total configuration size in bits.
func (d *Device) ConfigBits() int { return d.NumFrames() * d.FrameLen() * 32 }

// RowWordRange returns the half-open frame-word interval [lo, hi) occupied by
// the CLB rows [row0, row0+h) inside a frame. BitLinker uses this to merge a
// component's row band into a full-height frame without disturbing the bits
// above and below.
func (d *Device) RowWordRange(row0, h int) (lo, hi int) {
	return frameOverheadWords + WordsPerRow*row0, frameOverheadWords + WordsPerRow*(row0+h)
}

// MajorCount returns the number of columns in the block type's address space.
func (d *Device) MajorCount(b BlockType) int {
	if b == BlockBRAM {
		return len(d.BRAMColPos)
	}
	return d.Cols
}

func (d *Device) String() string {
	return fmt.Sprintf("%s (%d slices, %d BRAMs, speed -%d)", d.Name, d.SliceCount(), d.BRAMCount(), d.SpeedGrade)
}
