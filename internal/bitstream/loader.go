package bitstream

import (
	"fmt"

	"repro/internal/fabric"
)

// Loader is the device-side configuration logic: it consumes stream words
// (as delivered by the ICAP), maintains the packet state machine and the
// running CRC, and applies frame writes to the configuration memory.
type Loader struct {
	cm  *fabric.ConfigMemory
	dev *fabric.Device

	synced bool
	done   bool
	err    error

	crc    uint16
	far    fabric.FAR
	farSet bool
	flr    int
	wcfg   bool

	pendReg     Reg
	pendWords   int
	expectType2 bool
	fdri        []uint32

	onDone []func()

	framesWritten uint64
	configsDone   uint64
	crcErrors     uint64
}

// NewLoader returns a loader applying configurations to cm.
func NewLoader(cm *fabric.ConfigMemory) *Loader {
	return &Loader{cm: cm, dev: cm.Device()}
}

// OnDone registers a callback fired every time a configuration sequence
// completes (DESYNC command). The platform uses it to rebind the dynamic
// region's behavioural core to the new configuration contents.
func (l *Loader) OnDone(fn func()) { l.onDone = append(l.onDone, fn) }

// Err returns the sticky configuration error, if any.
func (l *Loader) Err() error { return l.err }

// Done reports whether the last configuration sequence completed.
func (l *Loader) Done() bool { return l.done }

// Stats reports frames written, configurations completed and CRC errors.
func (l *Loader) Stats() (frames, configs, crcErrs uint64) {
	return l.framesWritten, l.configsDone, l.crcErrors
}

// Reset returns the configuration logic to its power-up state (the sticky
// error is cleared; configuration memory contents are preserved, as a real
// ICAP reset does not erase the array).
func (l *Loader) Reset() {
	l.synced, l.done, l.err = false, false, nil
	l.crc, l.farSet, l.flr, l.wcfg = 0, false, 0, false
	l.pendReg, l.pendWords, l.expectType2 = 0, 0, false
	l.fdri = nil
}

// WriteWord feeds one stream word to the configuration logic.
func (l *Loader) WriteWord(w uint32) error {
	if l.err != nil {
		return l.err
	}
	if !l.synced {
		if w == SyncWord {
			l.synced = true
			l.done = false
		}
		return nil // pre-sync words are ignored
	}
	if l.pendWords > 0 {
		l.dataWord(w)
		return l.err
	}
	if l.expectType2 {
		if packetType(w) != 2 || headerOp(w) != opWrite {
			l.fail(fmt.Errorf("bitstream: expected type-2 FDRI header, got %#08x", w))
			return l.err
		}
		l.expectType2 = false
		l.pendReg = RegFDRI
		l.pendWords = type2WordCount(w)
		l.fdri = l.fdri[:0]
		return nil
	}
	switch packetType(w) {
	case 1:
		switch headerOp(w) {
		case opNOP:
			return nil
		case opWrite:
			reg, wc := headerReg(w), type1WordCount(w)
			if reg == RegFDRI && wc == 0 {
				l.expectType2 = true
				return nil
			}
			l.pendReg, l.pendWords = reg, wc
			if reg == RegFDRI {
				l.fdri = l.fdri[:0]
			}
			return nil
		default:
			l.fail(fmt.Errorf("bitstream: unsupported packet op %d", headerOp(w)))
		}
	case 2:
		l.fail(fmt.Errorf("bitstream: type-2 packet without preceding FDRI header"))
	default:
		// Dummy words between packets are tolerated, as on hardware.
		if w == DummyWord {
			return nil
		}
		l.fail(fmt.Errorf("bitstream: unexpected word %#08x", w))
	}
	return l.err
}

// Inert reports how many FDRI frame-data words are left in the current
// packet: words WriteWord only folds into the CRC and the frame buffer,
// fires no callback for, and whose value decides nothing until the packet
// commits after its last word. It is 0 on error, before sync and outside
// an FDRI packet.
func (l *Loader) Inert() int {
	if l.err != nil || !l.synced || l.pendReg != RegFDRI {
		return 0
	}
	return l.pendWords
}

// WriteWords feeds at most Inert() words with the effect of WriteWord on
// each: the CRC runs over the slice, and the packet's frames commit when
// its last word arrives.
func (l *Loader) WriteWords(ws []uint32) {
	if len(ws) > l.Inert() {
		panic(fmt.Sprintf("bitstream: WriteWords of %d words with %d inert", len(ws), l.Inert()))
	}
	l.crc = crcStream(l.crc, RegFDRI, ws)
	l.frameData(ws)
}

// Write feeds ws with the effect of WriteWord on each word: runs of inert
// words go through the CRC and the frame buffer as one slice, every other
// word goes one at a time. It stops after the first word that sets an
// error and returns how many words it consumed (0 when the error predates
// the call).
func (l *Loader) Write(ws []uint32) (int, error) { return l.write(ws, nil) }

// write is Write that also folds every word it consumes, as FDRI data,
// into *also when that is not nil: the decoder's container CRC covers the
// same words, and over an inert run both CRCs fold in one pass.
func (l *Loader) write(ws []uint32, also *uint16) (int, error) {
	for i := 0; i < len(ws); {
		if l.err != nil {
			return i, l.err
		}
		if n := min(l.Inert(), len(ws)-i); n > 0 {
			// WriteWords keeps the single CRC's loop out of this one,
			// where it would run short of registers.
			if run := ws[i : i+n]; also == nil {
				l.WriteWords(run)
			} else {
				l.crc, *also = crcStream2(l.crc, *also, RegFDRI, run)
				l.frameData(run)
			}
			i += n
			continue
		}
		if also != nil {
			*also = crcUpdate(*also, RegFDRI, ws[i])
		}
		_ = l.WriteWord(ws[i]) // sticky: the next iteration returns it
		i++
	}
	return len(ws), l.err
}

// frameData appends an inert run, already folded into the CRC, to the
// packet's frame buffer and commits the packet at its last word.
func (l *Loader) frameData(ws []uint32) {
	l.fdri = append(l.fdri, ws...)
	if l.pendWords -= len(ws); l.pendWords == 0 {
		l.commitFrames()
	}
}

// Load feeds a whole stream.
func (l *Loader) Load(s *Stream) error {
	_, err := l.Write(s.Words)
	return err
}

func (l *Loader) fail(err error) {
	if l.err == nil {
		l.err = err
	}
}

func (l *Loader) dataWord(w uint32) {
	reg := l.pendReg
	l.pendWords--
	if reg != RegCRC {
		l.crc = crcUpdate(l.crc, reg, w)
	}
	switch reg {
	case RegFDRI:
		l.fdri = append(l.fdri, w)
		if l.pendWords == 0 {
			l.commitFrames()
		}
	case RegCMD:
		l.command(Cmd(w))
	case RegFAR:
		far := fabric.ParseFAR(w)
		if _, err := l.dev.FrameIndex(far); err != nil {
			l.fail(err)
			return
		}
		l.far, l.farSet = far, true
	case RegFLR:
		l.flr = int(w)
		if l.flr != l.dev.FrameLen() {
			l.fail(fmt.Errorf("bitstream: FLR %d does not match device frame length %d", l.flr, l.dev.FrameLen()))
		}
	case RegIDCODE:
		if w != idcode(l.dev) {
			l.fail(fmt.Errorf("bitstream: IDCODE %#08x does not match device %s", w, l.dev.Name))
		}
	case RegCRC:
		if uint16(w) != l.crc {
			l.crcErrors++
			l.fail(fmt.Errorf("bitstream: CRC mismatch: stream %#04x, computed %#04x", uint16(w), l.crc))
		}
	case RegCTL, RegMASK, RegCOR, RegLOUT:
		// accepted, no behavioural effect in this model
	default:
		l.fail(fmt.Errorf("bitstream: write to unsupported register %v", reg))
	}
}

func (l *Loader) command(c Cmd) {
	switch c {
	case CmdNull, CmdStart, CmdRCFG:
	case CmdRCRC:
		l.crc = 0
	case CmdWCFG:
		l.wcfg = true
	case CmdLFRM:
		l.wcfg = false
	case CmdDesync:
		l.synced = false
		l.done = true
		l.configsDone++
		for _, fn := range l.onDone {
			fn()
		}
	default:
		l.fail(fmt.Errorf("bitstream: unsupported command %v", c))
	}
}

// commitFrames applies a completed FDRI packet: every frame-length chunk
// except the final pad frame is written at the auto-incrementing address.
func (l *Loader) commitFrames() {
	if !l.wcfg {
		l.fail(fmt.Errorf("bitstream: FDRI data without WCFG"))
		return
	}
	if !l.farSet {
		l.fail(fmt.Errorf("bitstream: FDRI data without FAR"))
		return
	}
	if l.flr == 0 {
		l.fail(fmt.Errorf("bitstream: FDRI data without FLR"))
		return
	}
	if len(l.fdri)%l.flr != 0 {
		l.fail(fmt.Errorf("bitstream: FDRI packet of %d words is not a multiple of frame length %d", len(l.fdri), l.flr))
		return
	}
	n := len(l.fdri)/l.flr - 1 // last chunk is the pad frame
	if n <= 0 {
		l.fail(fmt.Errorf("bitstream: FDRI packet too short (%d words)", len(l.fdri)))
		return
	}
	far := l.far
	for i := 0; i < n; i++ {
		if err := l.cm.WriteFrame(far, l.fdri[i*l.flr:(i+1)*l.flr]); err != nil {
			l.fail(err)
			return
		}
		l.framesWritten++
		if i < n-1 {
			next, ok := l.dev.NextFAR(far)
			if !ok {
				l.fail(fmt.Errorf("bitstream: frame write ran past the last frame"))
				return
			}
			far = next
		}
	}
	l.fdri = l.fdri[:0]
}
