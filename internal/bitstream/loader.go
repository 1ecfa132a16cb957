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
	// fdri buffers the open FDRI packet. Its data folds into the CRCs as
	// its frames commit (commitFrames), not as it arrives: folded counts
	// the leading words a flush has already folded, and also is the
	// container CRC that folds the packet's words beside crc, or nil.
	fdri   []uint32
	folded int
	also   *uint16

	// terms[i] is, with bit 16 set, frame i's CRC term: what the frame's
	// static words and register term add to a fold from state 0 (see
	// foldFrame). They hold for the Guard counted by termEpoch. pows[k]
	// points to crcPowOf(k) once a frame has needed it.
	terms     []uint32
	termEpoch uint64
	pows      []*crcPow

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
	l.flush() // the container CRC, if any, still covers the open packet
	l.synced, l.done, l.err = false, false, nil
	l.crc, l.farSet, l.flr, l.wcfg = 0, false, 0, false
	l.pendReg, l.pendWords, l.expectType2 = 0, 0, false
	l.fdri, l.folded, l.also = nil, 0, nil
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
		l.fdri, l.folded = l.fdri[:0], 0
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
				l.fdri, l.folded = l.fdri[:0], 0
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
// packet: words WriteWord only appends to the frame buffer, fires no
// callback for, and whose value decides nothing until the packet commits
// after its last word. It is 0 on error, before sync and outside an FDRI
// packet.
func (l *Loader) Inert() int {
	if l.err != nil || !l.synced || l.pendReg != RegFDRI {
		return 0
	}
	return l.pendWords
}

// WriteWords feeds at most Inert() words with the effect of WriteWord on
// each: they join the frame buffer as one slice, and the packet's frames
// commit, folding into the CRC, when its last word arrives.
func (l *Loader) WriteWords(ws []uint32) {
	if len(ws) > l.Inert() {
		panic(fmt.Sprintf("bitstream: WriteWords of %d words with %d inert", len(ws), l.Inert()))
	}
	l.frameData(ws, nil)
}

// Write feeds ws with the effect of WriteWord on each word: runs of inert
// words join the frame buffer as one slice, every other word goes one at
// a time. It stops after the first word that sets an error and returns how
// many words it consumed (0 when the error predates the call).
func (l *Loader) Write(ws []uint32) (int, error) { return l.write(ws, nil) }

// write is Write that also folds every word it consumes, as FDRI data,
// into *also when that is not nil: the decoder's container CRC covers the
// same words. FDRI frame data folds into both CRCs as its frames commit.
func (l *Loader) write(ws []uint32, also *uint16) (int, error) {
	for i := 0; i < len(ws); {
		if l.err != nil {
			return i, l.err
		}
		if n := min(l.Inert(), len(ws)-i); n > 0 {
			l.frameData(ws[i:i+n], also)
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

// frameData appends inert words to the packet's frame buffer, their
// container CRC also, and commits the packet at its last word.
func (l *Loader) frameData(ws []uint32, also *uint16) {
	if also != l.also {
		// The words pending so far fold into the CRC they were fed with.
		l.flush()
		l.also = also
	}
	l.fdri = append(l.fdri, ws...)
	if l.pendWords -= len(ws); l.pendWords == 0 {
		l.commitFrames()
	}
}

// flush folds the packet's pending words into the CRCs, word by word: a
// CRC is about to be observed, or the words are about to change container
// CRC, before their frames commit.
func (l *Loader) flush() { l.foldTo(len(l.fdri)) }

// foldTo folds the packet's words up to end, those not folded yet, into
// crc and the container CRC, word by word.
func (l *Loader) foldTo(end int) {
	if end <= l.folded {
		return
	}
	ws := l.fdri[l.folded:end]
	if l.also == nil {
		l.crc = crcStream(l.crc, RegFDRI, ws)
	} else {
		l.crc, *l.also = crcStream2(l.crc, *l.also, RegFDRI, ws)
	}
	l.folded = end
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
	if reg == RegFDRI {
		l.frameData([]uint32{w}, nil)
		return
	}
	l.pendWords--
	l.flush()
	if reg != RegCRC {
		l.crc = crcUpdate(l.crc, reg, w)
	}
	switch reg {
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
// except the final pad frame is written at the auto-incrementing address,
// and each frame folds into the CRCs as it commits (foldFrame). On every
// path the packet's words end up folded, in stream order.
func (l *Loader) commitFrames() {
	if !l.wcfg {
		l.failPacket(fmt.Errorf("bitstream: FDRI data without WCFG"))
		return
	}
	if !l.farSet {
		l.failPacket(fmt.Errorf("bitstream: FDRI data without FAR"))
		return
	}
	if l.flr == 0 {
		l.failPacket(fmt.Errorf("bitstream: FDRI data without FLR"))
		return
	}
	if len(l.fdri)%l.flr != 0 {
		l.failPacket(fmt.Errorf("bitstream: FDRI packet of %d words is not a multiple of frame length %d", len(l.fdri), l.flr))
		return
	}
	n := len(l.fdri)/l.flr - 1 // last chunk is the pad frame
	if n <= 0 {
		l.failPacket(fmt.Errorf("bitstream: FDRI packet too short (%d words)", len(l.fdri)))
		return
	}
	far := l.far
	first, _ := l.dev.FrameIndex(far) // checked when FAR was written
	l.syncTerms()
	for i := 0; i < n; i++ {
		if err := l.cm.WriteFrame(far, l.fdri[i*l.flr:(i+1)*l.flr]); err != nil {
			l.failPacket(err)
			return
		}
		l.framesWritten++
		l.foldFrame(first+i, i*l.flr)
		if i < n-1 {
			next, ok := l.dev.NextFAR(far)
			if !ok {
				l.failPacket(fmt.Errorf("bitstream: frame write ran past the last frame"))
				return
			}
			far = next
		}
	}
	l.flush() // the pad frame
	l.fdri, l.folded, l.also = l.fdri[:0], 0, nil
}

// failPacket folds what is left of the packet and fails with err.
func (l *Loader) failPacket(err error) {
	l.flush()
	l.also = nil
	l.fail(err)
}

// The per-frame CRC fold. A frame of L words w folds as
//
//	crc' = A^L(crc) ⊕ δ,  δ = crcStream(0, FDRI, w),
//
// A being the CRC's state map. δ splits by word: each owned range [a, b)
// of the frame (fabric's Owned, the regions' row bands) adds
// A^(L−b)(crcStream(0, FDRI, w[a:b])), and the static words with every
// register term add the rest, the frame's term T. After a frame write
// that leaves the guard holding (Guarded and not Disturbed), every static
// word of the frame equals its Guard-time value, so T is the same for
// every such write of the frame: it is taken once, from the frame's full
// fold, and then only the owned words run through the table CRC. Any
// other frame folds word by word.

// syncTerms drops the frame terms when Guard has run since they were
// taken: the static design, or its content, may differ.
func (l *Loader) syncTerms() {
	if e := l.cm.GuardEpoch(); e != l.termEpoch {
		clear(l.terms)
		l.termEpoch = e
	}
}

// foldFrame folds frame idx, the frame buffer's words from start on, into
// crc and the container CRC, just after its frame write.
func (l *Loader) foldFrame(idx, start int) {
	end := start + l.flr
	if start < l.folded || !l.cm.Guarded() || l.cm.Disturbed() {
		// Flushed early, unguarded, or the guard has tripped: the static
		// words need not match the term's.
		l.foldTo(end)
		return
	}
	w := l.fdri[start:end]
	owned := l.cm.Owned(idx)
	if l.terms == nil {
		l.terms = make([]uint32, l.dev.NumFrames())
		l.pows = make([]*crcPow, l.flr+1)
	}
	var d uint16 // δ
	for _, r := range owned {
		d ^= l.pow(l.flr - r.Hi).apply(crcStream(0, RegFDRI, w[r.Lo:r.Hi]))
	}
	if t := l.terms[idx]; t>>16 != 0 {
		d ^= uint16(t)
	} else {
		full := crcStream(0, RegFDRI, w)
		l.terms[idx] = 1<<16 | uint32(full^d)
		d = full
	}
	powL := l.pow(l.flr)
	l.crc = powL.apply(l.crc) ^ d
	if l.also != nil {
		*l.also = powL.apply(*l.also) ^ d
	}
	l.folded = end
}

// pow returns A^k, crcPowOf(k) looked up once per loader.
func (l *Loader) pow(k int) *crcPow {
	if l.pows[k] == nil {
		l.pows[k] = crcPowOf(k)
	}
	return l.pows[k]
}
