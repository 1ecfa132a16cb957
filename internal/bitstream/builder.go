package bitstream

import (
	"fmt"

	"repro/internal/fabric"
)

// FrameRun is a contiguous run of frames starting at a frame address.
// Address auto-increment writes them back to back.
type FrameRun struct {
	Start  fabric.FAR
	Frames [][]uint32
}

// Builder assembles a configuration stream for a device. The zero Builder is
// not usable; call NewBuilder.
type Builder struct {
	dev   *fabric.Device
	words []uint32
	crc   uint16
	// crcAt is the index of the CRC check value Finish wrote (-1 before).
	// Recorded rather than rediscovered: scanning the finished stream for
	// the CRC register header can land on a frame data word that happens
	// to equal it.
	crcAt int
	err   error
}

// NewBuilder returns a stream builder for the device.
func NewBuilder(dev *fabric.Device) *Builder {
	return &Builder{dev: dev, crcAt: -1}
}

// Preamble emits dummy padding, the sync word, the device IDCODE, the frame
// length register and a CRC reset — the standard stream prologue.
func (b *Builder) Preamble() *Builder {
	b.words = append(b.words, DummyWord, SyncWord)
	b.writeReg(RegIDCODE, idcode(b.dev))
	b.writeReg(RegFLR, uint32(b.dev.FrameLen()))
	b.Command(CmdRCRC)
	b.crc = 0
	return b
}

// Command writes the command register.
func (b *Builder) Command(c Cmd) *Builder {
	b.writeReg(RegCMD, uint32(c))
	if c == CmdRCRC {
		b.crc = 0
	}
	return b
}

// writeReg emits a type-1 register write.
func (b *Builder) writeReg(reg Reg, vals ...uint32) {
	b.words = append(b.words, type1Header(opWrite, reg, len(vals)))
	b.words = append(b.words, vals...)
	b.crc = crcStream(b.crc, reg, vals)
}

// WriteRun emits one contiguous frame run: WCFG, FAR, then FDRI data with a
// trailing pad frame that pushes the last real frame through the frame data
// pipeline. Frame lengths must match the device.
func (b *Builder) WriteRun(run FrameRun) *Builder {
	if b.err != nil {
		return b
	}
	flen := b.dev.FrameLen()
	if len(run.Frames) == 0 {
		b.err = fmt.Errorf("bitstream: empty frame run at %v", run.Start)
		return b
	}
	// Validate the run stays within the column-major address space.
	far := run.Start
	for i := range run.Frames {
		if len(run.Frames[i]) != flen {
			b.err = fmt.Errorf("bitstream: frame %d of run at %v has %d words, want %d",
				i, run.Start, len(run.Frames[i]), flen)
			return b
		}
		if _, err := b.dev.FrameIndex(far); err != nil {
			b.err = err
			return b
		}
		if i < len(run.Frames)-1 {
			next, ok := b.dev.NextFAR(far)
			if !ok {
				b.err = fmt.Errorf("bitstream: frame run at %v runs past the last frame", run.Start)
				return b
			}
			far = next
		}
	}
	b.Command(CmdWCFG)
	b.writeReg(RegFAR, run.Start.Word())
	// FDRI via type-1 header with zero count followed by a type-2 packet, as
	// real streams do for long frame data.
	total := (len(run.Frames) + 1) * flen
	b.words = append(b.words, type1Header(opWrite, RegFDRI, 0), type2Header(opWrite, total))
	for _, f := range run.Frames {
		b.words = append(b.words, f...)
		b.crc = crcStream(b.crc, RegFDRI, f)
	}
	pad := make([]uint32, flen)
	b.words = append(b.words, pad...)
	b.crc = crcStream(b.crc, RegFDRI, pad)
	b.Command(CmdLFRM)
	return b
}

// Finish appends the CRC check, a start-up command and desynchronization,
// and returns the completed stream.
func (b *Builder) Finish() (*Stream, error) {
	if b.err != nil {
		return nil, b.err
	}
	// Writing the running CRC value makes the device-side comparison pass.
	b.crcAt = len(b.words) + 1
	b.words = append(b.words, type1Header(opWrite, RegCRC, 1), uint32(b.crc))
	b.Command(CmdStart)
	b.Command(CmdDesync)
	b.words = append(b.words, DummyWord, DummyWord)
	return &Stream{Device: b.dev.Name, Words: b.words}, nil
}

// idcode derives a stable 32-bit identifier from the device name.
func idcode(d *fabric.Device) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(d.Name); i++ {
		h ^= uint32(d.Name[i])
		h *= 16777619
	}
	return h
}

// Build assembles a full stream for a set of frame runs.
func Build(dev *fabric.Device, runs []FrameRun) (*Stream, error) {
	b := NewBuilder(dev).Preamble()
	for _, r := range runs {
		b.WriteRun(r)
	}
	return b.Finish()
}

// BuildCorrupt is Build with the final CRC deliberately damaged; used by
// tests and the fault-injection benchmarks. The damaged word is the one
// Finish recorded — a payload word that happens to equal the CRC register
// header cannot decoy the corruption onto frame data.
func BuildCorrupt(dev *fabric.Device, runs []FrameRun) (*Stream, error) {
	b := NewBuilder(dev).Preamble()
	for _, r := range runs {
		b.WriteRun(r)
	}
	s, err := b.Finish()
	if err != nil {
		return nil, err
	}
	s.Words[b.crcAt] ^= 0x5555
	return s, nil
}
