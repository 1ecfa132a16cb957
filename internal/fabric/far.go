package fabric

import "fmt"

// FAR is a frame address: block type, major address (column) and minor
// address (frame within the column), mirroring the Virtex-II frame address
// register.
type FAR struct {
	Block BlockType
	Major int
	Minor int
}

// Word packs the address into the 32-bit register layout used by the
// bitstream format: block[31:28] major[27:14] minor[13:0].
func (f FAR) Word() uint32 {
	return uint32(f.Block)<<28 | uint32(f.Major&0x3FFF)<<14 | uint32(f.Minor&0x3FFF)
}

// ParseFAR unpacks a frame address register word.
func ParseFAR(w uint32) FAR {
	return FAR{
		Block: BlockType(w >> 28),
		Major: int(w >> 14 & 0x3FFF),
		Minor: int(w & 0x3FFF),
	}
}

func (f FAR) String() string {
	return fmt.Sprintf("%s[%d].%d", f.Block, f.Major, f.Minor)
}

// FrameIndex maps a frame address to the device's linear frame numbering
// (CLB columns first, then BRAM columns).
func (d *Device) FrameIndex(f FAR) (int, error) {
	switch f.Block {
	case BlockCLB:
		if f.Major < 0 || f.Major >= d.Cols || f.Minor < 0 || f.Minor >= FramesPerCLBColumn {
			return 0, fmt.Errorf("fabric: %s: frame address %v out of range", d.Name, f)
		}
		return f.Major*FramesPerCLBColumn + f.Minor, nil
	case BlockBRAM:
		if f.Major < 0 || f.Major >= len(d.BRAMColPos) || f.Minor < 0 || f.Minor >= FramesPerBRAMColumn {
			return 0, fmt.Errorf("fabric: %s: frame address %v out of range", d.Name, f)
		}
		return d.Cols*FramesPerCLBColumn + f.Major*FramesPerBRAMColumn + f.Minor, nil
	default:
		return 0, fmt.Errorf("fabric: %s: unknown block type in %v", d.Name, f)
	}
}

// FARAt is the inverse of FrameIndex.
func (d *Device) FARAt(index int) (FAR, error) {
	clbFrames := d.Cols * FramesPerCLBColumn
	if index < 0 || index >= d.NumFrames() {
		return FAR{}, fmt.Errorf("fabric: %s: frame index %d out of range", d.Name, index)
	}
	if index < clbFrames {
		return FAR{Block: BlockCLB, Major: index / FramesPerCLBColumn, Minor: index % FramesPerCLBColumn}, nil
	}
	index -= clbFrames
	return FAR{Block: BlockBRAM, Major: index / FramesPerBRAMColumn, Minor: index % FramesPerBRAMColumn}, nil
}

// Column returns the column of frame index i, numbered as frames are: CLB
// columns first, then BRAM columns. Bands indexes its ranges by it.
func (d *Device) Column(i int) int {
	if clb := d.Cols * FramesPerCLBColumn; i >= clb {
		return d.Cols + (i-clb)/FramesPerBRAMColumn
	}
	return i / FramesPerCLBColumn
}

// NextFAR returns the frame address following f in linear order, supporting
// the auto-increment behaviour of consecutive FDRI frame writes. ok is false
// when f is the last frame of the device.
func (d *Device) NextFAR(f FAR) (next FAR, ok bool) {
	i, err := d.FrameIndex(f)
	if err != nil {
		return FAR{}, false
	}
	if i+1 >= d.NumFrames() {
		return FAR{}, false
	}
	n, err := d.FARAt(i + 1)
	if err != nil {
		return FAR{}, false
	}
	return n, true
}
