// Package dock implements the two wrapper modules that connect the dynamic
// region to the rest of the system: the OPB Dock of the 32-bit design (a
// slave peripheral with a 32-bit data channel, §3.1) and the PLB Dock of the
// 64-bit design (a master/slave peripheral with a 64-bit channel, a
// scatter-gather DMA controller, an output FIFO and an interrupt generator,
// §4.1). The behavioural circuit configured in the region is driven through
// the hw.Core interface; the platform rebinds it after each reconfiguration.
package dock

import "repro/internal/hw"

// Shared register offsets of both docks.
const (
	RegData   = 0x00 // write: data word to the region; read: region output
	RegCtrl   = 0x04 // control
	RegStatus = 0x08 // status
)

// Control bits.
const (
	CtrlCoreReset = 1 << 0 // reset the circuit in the region
)

// Status bits.
const (
	StatBound  = 1 << 0 // a circuit is bound to the region
	StatBroken = 1 << 1 // the bound circuit is the broken-configuration model
)

// OPBDock is the 32-bit wrapper: an OPB slave performing address decoding
// and I/O operations. Incoming data is stored, so it stays available to the
// region between write operations; a write-strobe signal accompanies every
// data write (usable as a clock enable by the dynamic circuit).
type OPBDock struct {
	core hw.Core

	// Wait states of the wrapper's data path, in OPB cycles.
	ReadWaits  int
	WriteWaits int

	wordsIn       uint64
	wordsOut      uint64
	writesDropped uint64
}

// NewOPBDock returns the 32-bit dock with calibrated wait states.
func NewOPBDock(readWaits, writeWaits int) *OPBDock {
	return &OPBDock{ReadWaits: readWaits, WriteWaits: writeWaits}
}

// Name implements bus.Slave.
func (d *OPBDock) Name() string { return "opb-dock" }

// SetCore binds the behavioural circuit (nil unbinds).
func (d *OPBDock) SetCore(c hw.Core) { d.core = c }

// Core returns the bound circuit.
func (d *OPBDock) Core() hw.Core { return d.core }

// Stats reports data words moved through the dock.
func (d *OPBDock) Stats() (in, out uint64) { return d.wordsIn, d.wordsOut }

// Read implements bus.Slave.
func (d *OPBDock) Read(addr uint32, size int) (uint64, int) {
	switch addr {
	case RegData:
		if d.core == nil {
			return ^uint64(0), d.ReadWaits
		}
		d.wordsOut++
		return d.core.Read() & 0xFFFFFFFF, d.ReadWaits
	case RegStatus:
		return d.statusBits(), 1
	default:
		return 0, 1
	}
}

// Write implements bus.Slave.
func (d *OPBDock) Write(addr uint32, val uint64, size int) int {
	switch addr {
	case RegData:
		if d.core == nil {
			d.writesDropped++
			return d.WriteWaits
		}
		d.wordsIn++
		d.core.Write(val&0xFFFFFFFF, 4)
		return d.WriteWaits
	case RegCtrl:
		if val&CtrlCoreReset != 0 && d.core != nil {
			d.core.Reset()
		}
		return 1
	default:
		return 1
	}
}

// PlainTiming implements bus.PlainSlave: a register's wait states are
// fixed, and the bound circuit takes and gives its words functionally.
func (d *OPBDock) PlainTiming() {}

func (d *OPBDock) statusBits() uint64 {
	var s uint64
	if d.core != nil {
		s |= StatBound
		if _, broken := d.core.(*hw.BrokenCore); broken {
			s |= StatBroken
		}
	}
	return s
}
