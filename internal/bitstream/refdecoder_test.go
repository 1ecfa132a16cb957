package bitstream

import (
	"fmt"

	"repro/internal/fabric"
)

// refDecoder is the word-by-word form of Decoder and its test oracle: it
// emits every decoded word into the loader through WriteWord, one at a
// time, and folds the container CRC and, by a flush, the loader's CRC
// over each as it arrives. It verifies the
// container's decode CRC when the declared word count has been emitted;
// structural damage (bad magic, bad opcode, overrun, trailing input) and
// CRC mismatches latch a sticky error. Loader-side errors stay the
// loader's: they are reported through the ICAP status register exactly as
// for an uncompressed stream.
type refDecoder struct {
	l *Loader

	state    int
	rawWords int
	wantCRC  uint16
	crc      uint16
	emitted  int
	out      []uint32
	err      error
	done     bool

	litLeft   int
	pendN     int
	pendOff   int
	pendIsCM  bool
	pendIsRef bool
	pendIsRun bool
}

func newRefDecoder(l *Loader) *refDecoder { return &refDecoder{l: l} }

// Err returns the sticky decode error, if any.
func (d *refDecoder) Err() error { return d.err }

// Done reports whether the full declared word count decoded and the decode
// CRC checked out.
func (d *refDecoder) Done() bool { return d.done }

// Emitted reports how many raw stream words have been produced so far.
func (d *refDecoder) Emitted() int { return d.emitted }

func (d *refDecoder) fail(err error) (int, error) {
	if d.err == nil {
		d.err = err
	}
	return 0, d.err
}

// emit produces one decoded stream word.
func (d *refDecoder) emit(w uint32) error {
	if d.emitted >= d.rawWords {
		d.err = fmt.Errorf("bitstream: decode: output overruns declared %d words", d.rawWords)
		return d.err
	}
	d.out = append(d.out, w)
	d.crc = crcUpdate(d.crc, RegFDRI, w)
	d.emitted++
	// Configuration-logic errors are sticky in the loader and surface via
	// the ICAP status register, as for an uncompressed stream.
	_ = d.l.WriteWord(w)
	d.l.flush()
	if d.emitted == d.rawWords {
		if d.crc != d.wantCRC {
			d.err = fmt.Errorf("bitstream: decode: CRC mismatch: container %#04x, computed %#04x", d.wantCRC, d.crc)
			return d.err
		}
		d.done = true
	}
	return nil
}

// WriteWord consumes one container word and returns how many raw stream
// words it caused to be emitted into the loader.
func (d *refDecoder) WriteWord(w uint32) (int, error) {
	if d.err != nil {
		return 0, d.err
	}
	if d.done {
		return d.fail(fmt.Errorf("bitstream: decode: input past end of container"))
	}
	switch d.state {
	case dsMagic:
		if w != CompressedMagic {
			return d.fail(fmt.Errorf("bitstream: decode: bad container magic %#08x", w))
		}
		d.state = dsRaw
		return 0, nil
	case dsRaw:
		if w == 0 || w > 1<<28 {
			return d.fail(fmt.Errorf("bitstream: decode: implausible raw word count %d", w))
		}
		d.rawWords = int(w)
		d.state = dsCRC
		return 0, nil
	case dsCRC:
		if w>>16 != 0 {
			return d.fail(fmt.Errorf("bitstream: decode: damaged CRC header %#08x", w))
		}
		d.wantCRC = uint16(w)
		d.state = dsOp
		return 0, nil
	case dsOp:
		if d.litLeft > 0 {
			d.litLeft--
			if err := d.emit(w); err != nil {
				return 0, err
			}
			return 1, nil
		}
		tag := int(w >> 24)
		switch tag {
		case opLit:
			n := int(w & maxLitRun)
			if n == 0 {
				return d.fail(fmt.Errorf("bitstream: decode: zero-length literal run"))
			}
			d.litLeft = n
			return 0, nil
		case opRun:
			d.pendN = int(w & maxLitRun)
			d.pendIsRun, d.pendIsCM, d.pendIsRef = true, false, false
			d.state = dsPayload
			return 0, nil
		case opCM:
			d.pendOff = int(w >> 12 & maxCMRun)
			d.pendN = int(w & maxCMRun)
			d.pendIsCM, d.pendIsRun, d.pendIsRef = true, false, false
			d.state = dsPayload
			return 0, nil
		case opRef:
			d.pendN = int(w & maxLitRun)
			d.pendIsRef, d.pendIsRun, d.pendIsCM = true, false, false
			d.state = dsPayload
			return 0, nil
		default:
			return d.fail(fmt.Errorf("bitstream: decode: bad opcode %#08x", w))
		}
	case dsPayload:
		d.state = dsOp
		n := d.pendN
		if n == 0 {
			return d.fail(fmt.Errorf("bitstream: decode: zero-length run"))
		}
		switch {
		case d.pendIsRun:
			for i := 0; i < n; i++ {
				if err := d.emit(w); err != nil {
					return i, err
				}
			}
			return n, nil
		case d.pendIsCM:
			// The KEEP op: copy from the live configuration memory. The
			// frame still holds its pre-load content — the loader commits
			// FDRI packets only at packet end, and the encoder never
			// CM-references a frame an earlier packet rewrote.
			frame, err := d.l.cm.ReadFrame(fabric.ParseFAR(w))
			if err != nil {
				return d.fail(fmt.Errorf("bitstream: decode: CM reference: %w", err))
			}
			if d.pendOff+n > len(frame) {
				return d.fail(fmt.Errorf("bitstream: decode: CM run [%d,%d) exceeds frame length %d", d.pendOff, d.pendOff+n, len(frame)))
			}
			for i := 0; i < n; i++ {
				if err := d.emit(frame[d.pendOff+i]); err != nil {
					return i, err
				}
			}
			return n, nil
		case d.pendIsRef:
			off := int(w)
			if off < 0 || off+n > len(d.out) {
				return d.fail(fmt.Errorf("bitstream: decode: back-reference [%d,%d) exceeds %d decoded words", off, off+n, len(d.out)))
			}
			for i := 0; i < n; i++ {
				if err := d.emit(d.out[off+i]); err != nil {
					return i, err
				}
			}
			return n, nil
		}
		return d.fail(fmt.Errorf("bitstream: decode: internal payload state"))
	}
	return d.fail(fmt.Errorf("bitstream: decode: internal state %d", d.state))
}
