package bitstream

import (
	"fmt"

	"repro/internal/fabric"
)

// Compressed configuration streams (the fourth stream kind).
//
// A compressed stream is an opcode encoding of an ordinary configuration
// stream: the decoder reproduces the original stream words, one op's
// expansion at a time, and feeds them to the configuration logic in
// order, so the packet state machine, the running stream CRC and the
// frame-commit rules are exactly those of an uncompressed load. On top of
// the stream CRC the container carries its own decode-side CRC over every
// decoded word (folded with the FDRI register address, the readback-scrub
// convention), so a damaged container is caught even when the damage
// hides inside an opcode rather than a data word.
//
// Four opcodes, tag in the top 8 bits of the op word:
//
//	LIT n        — the next n container words are literal stream words
//	RUN n, v     — emit n copies of the value word v
//	CM  off,n, f — emit n words from offset off of the live configuration
//	               memory frame at address f (the KEEP op: the encoder
//	               verified those words already match the assumed image)
//	REF n, o     — emit n words repeated from decoded output offset o
//	               (duplicate-frame dedup)
//
// The CM op is what makes the codec effective: a differential stream must
// ship full-height frames even when only the region band changed, and the
// static fill above and below the band is identical in the assumed image.
// It is safe because the loader commits an FDRI packet's frames only when
// the packet ends — while a frame's words are still decoding, the live
// frame at its own address holds the pre-load content the encoder diffed
// against. The encoder additionally refuses CM references to any frame
// address written by an earlier packet of the same stream.
type Compressed struct {
	Device string
	// Words is the container: 3 header words (magic, raw word count,
	// decode CRC) followed by the opcode stream.
	Words []uint32
	// RawWords is the decoded (original) stream length in words.
	RawWords int
	// Frames is the number of configuration frames the decoded stream
	// writes (copied from the source differential's accounting).
	Frames int
}

// SizeBytes returns the container size in bytes as transferred through ICAP.
func (c *Compressed) SizeBytes() int { return 4 * len(c.Words) }

// RawBytes returns the decoded stream size in bytes — what the
// configuration port actually consumes.
func (c *Compressed) RawBytes() int { return 4 * c.RawWords }

// CompressedMagic heads every compressed container.
const CompressedMagic uint32 = 0x434D5052 // "CMPR"

const (
	opLit = 0x4C // 'L': low 24 bits = count, then count literal words
	opRun = 0x52 // 'R': low 24 bits = count, then 1 value word
	opCM  = 0x43 // 'C': bits 23:12 = frame offset, 11:0 = count, then 1 FAR word
	opRef = 0x44 // 'D': low 24 bits = count, then 1 output-offset word

	// minRun is the shortest run worth an opcode: a RUN/CM op costs two
	// container words, so runs of three or more win over literals.
	minRun = 3

	maxLitRun = 0xFFFFFF
	maxCMRun  = 0xFFF
)

// span is one parsed slice of the source stream: either generic words
// (headers, register payloads, padding) or one frame's FDRI payload.
type span struct {
	words   []uint32
	start   int // absolute index into the source stream
	isFrame bool
	far     fabric.FAR
	packet  int // FDRI packet ordinal, frames only
}

// parseSpans walks the stream with a minimal mirror of the loader's packet
// state machine and splits it into generic and frame spans.
func parseSpans(dev *fabric.Device, words []uint32) ([]span, error) {
	flen := dev.FrameLen()
	var spans []span
	generic := func(lo, hi int) {
		if hi > lo {
			spans = append(spans, span{words: words[lo:hi], start: lo})
		}
	}
	synced := false
	var far fabric.FAR
	farSet := false
	packet := 0
	glo := 0 // start of the pending generic span
	i := 0
	for i < len(words) {
		w := words[i]
		if !synced {
			if w == SyncWord {
				synced = true
			}
			i++
			continue
		}
		if packetType(w) == 1 && headerOp(w) == opWrite {
			reg, wc := headerReg(w), type1WordCount(w)
			if reg == RegFDRI && wc == 0 {
				// Long-form FDRI: type-2 header follows with the count.
				if i+1 >= len(words) || packetType(words[i+1]) != 2 {
					return nil, fmt.Errorf("bitstream: compress: missing type-2 FDRI header at %d", i)
				}
				n := type2WordCount(words[i+1])
				generic(glo, i+2)
				if err := emitFrames(dev, words, i+2, n, far, farSet, flen, packet, &spans); err != nil {
					return nil, err
				}
				packet++
				i += 2 + n
				glo = i
				continue
			}
			if reg == RegFDRI {
				generic(glo, i+1)
				if err := emitFrames(dev, words, i+1, wc, far, farSet, flen, packet, &spans); err != nil {
					return nil, err
				}
				packet++
				i += 1 + wc
				glo = i
				continue
			}
			if reg == RegFAR && wc == 1 && i+1 < len(words) {
				far, farSet = fabric.ParseFAR(words[i+1]), true
			}
			i += 1 + wc
			continue
		}
		// NOPs, dummies and anything else stay generic words.
		i++
	}
	generic(glo, len(words))
	return spans, nil
}

// emitFrames splits one FDRI payload into per-frame spans plus a generic
// span for the trailing pad frame.
func emitFrames(dev *fabric.Device, words []uint32, at, n int, far fabric.FAR, farSet bool, flen, packet int, spans *[]span) error {
	if !farSet {
		return fmt.Errorf("bitstream: compress: FDRI payload without FAR")
	}
	if at+n > len(words) || n%flen != 0 || n/flen < 2 {
		return fmt.Errorf("bitstream: compress: malformed FDRI payload of %d words at %d", n, at)
	}
	frames := n/flen - 1 // last chunk is the pad frame
	f := far
	for j := 0; j < frames; j++ {
		*spans = append(*spans, span{
			words: words[at+j*flen : at+(j+1)*flen], start: at + j*flen,
			isFrame: true, far: f, packet: packet,
		})
		if j < frames-1 {
			next, ok := dev.NextFAR(f)
			if !ok {
				return fmt.Errorf("bitstream: compress: frame run past the last frame")
			}
			f = next
		}
	}
	// Pad frame: all zeros, handled by generic RLE.
	*spans = append(*spans, span{words: words[at+frames*flen : at+n], start: at + frames*flen})
	return nil
}

// encoder accumulates the opcode stream.
type encoder struct {
	out []uint32
	lit []uint32
}

func (e *encoder) flushLit() {
	for len(e.lit) > 0 {
		n := len(e.lit)
		if n > maxLitRun {
			n = maxLitRun
		}
		e.out = append(e.out, uint32(opLit)<<24|uint32(n))
		e.out = append(e.out, e.lit[:n]...)
		e.lit = e.lit[n:]
	}
}

func (e *encoder) run(v uint32, n int) {
	e.flushLit()
	e.out = append(e.out, uint32(opRun)<<24|uint32(n&maxLitRun), v)
}

func (e *encoder) cm(off, n int, far fabric.FAR) {
	e.flushLit()
	e.out = append(e.out, uint32(opCM)<<24|uint32(off&maxCMRun)<<12|uint32(n&maxCMRun), far.Word())
}

func (e *encoder) ref(off, n int) {
	e.flushLit()
	e.out = append(e.out, uint32(opRef)<<24|uint32(n&maxLitRun), uint32(off))
}

// generic RLE-encodes a run of non-frame words.
func (e *encoder) generic(words []uint32) {
	for i := 0; i < len(words); {
		n := 1
		for i+n < len(words) && words[i+n] == words[i] {
			n++
		}
		if n >= minRun {
			e.run(words[i], n)
			i += n
		} else {
			e.lit = append(e.lit, words[i])
			i++
		}
	}
}

// frame encodes one frame against the assumed image: CM-keep runs where the
// frame matches the assumed content, value runs, literals otherwise.
func (e *encoder) frame(fw, af []uint32, far fabric.FAR, cmOK bool) {
	for i := 0; i < len(fw); {
		cmLen := 0
		if cmOK && af != nil {
			for i+cmLen < len(fw) && cmLen < maxCMRun && fw[i+cmLen] == af[i+cmLen] {
				cmLen++
			}
		}
		runLen := 1
		for i+runLen < len(fw) && fw[i+runLen] == fw[i] {
			runLen++
		}
		switch {
		case cmLen >= minRun && cmLen >= runLen:
			e.cm(i, cmLen, far)
			i += cmLen
		case runLen >= minRun:
			e.run(fw[i], runLen)
			i += runLen
		default:
			e.lit = append(e.lit, fw[i])
			i++
		}
	}
}

// Compress encodes a built stream against the assumed pre-load image (the
// same image a differential was diffed against). The result decodes to the
// byte-identical original stream, but only on a device whose live
// configuration matches the assumed image in every CM-referenced frame —
// exactly the §2.2 differential hazard, which the load path's resident-state
// gate already enforces.
func Compress(dev *fabric.Device, s *Stream, assumed *fabric.ConfigMemory, frames int) (*Compressed, error) {
	if s.Device != dev.Name {
		return nil, fmt.Errorf("bitstream: compress: stream targets %q, device is %q", s.Device, dev.Name)
	}
	if assumed != nil && assumed.Device() != dev {
		return nil, fmt.Errorf("bitstream: compress: assumed image belongs to a different device")
	}
	spans, err := parseSpans(dev, s.Words)
	if err != nil {
		return nil, err
	}
	e := &encoder{}
	written := make(map[fabric.FAR]int) // FAR -> packet that wrote it
	dedup := make(map[uint64]int)       // frame hash -> decoded offset of first copy
	for _, sp := range spans {
		if !sp.isFrame {
			e.generic(sp.words)
			continue
		}
		// Duplicate-frame dedup: an identical frame decoded earlier is a
		// two-word back-reference.
		h := hashWords(sp.words)
		if off, ok := dedup[h]; ok && wordsEqual(s.Words[off:off+len(sp.words)], sp.words) {
			e.ref(off, len(sp.words))
			continue
		}
		dedup[h] = sp.start
		// CM keeps are only safe against frames this stream has not already
		// rewritten: the loader commits a packet's frames when the packet
		// ends, so frames written by earlier packets no longer hold the
		// assumed content at decode time.
		cmOK := true
		if p, ok := written[sp.far]; ok && p < sp.packet {
			cmOK = false
		}
		var af []uint32
		if assumed != nil {
			af, _ = assumed.ReadFrame(sp.far)
		}
		e.frame(sp.words, af, sp.far, cmOK)
		written[sp.far] = sp.packet
	}
	e.flushLit()
	crc := FrameCRC(0, s.Words)
	out := make([]uint32, 0, 3+len(e.out))
	out = append(out, CompressedMagic, uint32(len(s.Words)), uint32(crc))
	out = append(out, e.out...)
	return &Compressed{Device: s.Device, Words: out, RawWords: len(s.Words), Frames: frames}, nil
}

func hashWords(ws []uint32) uint64 {
	var h uint64 = 14695981039346656037
	for _, w := range ws {
		h ^= uint64(w)
		h *= 1099511628211
	}
	return h
}

func wordsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Decoder streams a compressed container into a loader, reproducing the
// original stream words. It expands one op at a time: the op's words are
// appended to the decoded output as one slice, and that new tail goes to
// the loader in one call (Loader.write), which folds the container CRC
// and the stream CRC over FDRI frame data in one pass. It verifies the
// container's decode CRC when the declared word count has been emitted;
// structural damage (bad magic, bad opcode, overrun, trailing input) and
// CRC mismatches latch a sticky error. Loader-side errors stay the
// loader's: they are reported through the ICAP status register exactly as
// for an uncompressed stream.
type Decoder struct {
	l *Loader

	state    int
	rawWords int
	wantCRC  uint16
	crc      uint16
	out      []uint32 // every word decoded so far
	err      error
	done     bool

	litLeft int
	op      int // the RUN, CM or REF tag whose payload word comes next
	opN     int
	opOff   int // a CM op's offset into its frame
}

const (
	dsMagic = iota
	dsRaw
	dsCRC
	dsOp
	dsPayload
)

// NewDecoder returns a decoder feeding the loader.
func NewDecoder(l *Loader) *Decoder {
	return &Decoder{l: l}
}

// Reset readies the decoder for a new container. It keeps the output
// buffer, so an engine decoding one container after another grows it once.
func (d *Decoder) Reset() {
	d.l.flush() // words of a packet the last container left open are its own
	*d = Decoder{l: d.l, out: d.out[:0]}
}

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Done reports whether the full declared word count decoded and the decode
// CRC checked out.
func (d *Decoder) Done() bool { return d.done }

// Emitted reports how many raw stream words have been produced so far.
func (d *Decoder) Emitted() int { return len(d.out) }

func (d *Decoder) fail(err error) (int, error) {
	if d.err == nil {
		d.err = err
	}
	return 0, d.err
}

// Write consumes container words with the effect of WriteWord on each, but
// takes a run of literals as one slice. It stops after the first word that
// leaves the decoder or the loader with an error, and returns how many
// words it consumed and that error, the decoder's before the loader's.
func (d *Decoder) Write(ws []uint32) (int, error) {
	for i := 0; i < len(ws); {
		var err error
		if d.litLeft > 0 && d.err == nil && !d.done {
			var n int
			n, err = d.lits(ws[i:min(i+d.litLeft, len(ws))])
			i += n
		} else {
			_, err = d.WriteWord(ws[i])
			i++
		}
		if err == nil {
			err = d.l.Err()
		}
		if err != nil {
			return i, err
		}
	}
	return len(ws), nil
}

// WriteWord consumes one container word and returns how many raw stream
// words it caused to be emitted into the loader. On error the count leaves
// out the word that failed: the one past the declared count, or the last
// one, whose container CRC did not match.
func (d *Decoder) WriteWord(w uint32) (int, error) {
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
			lit := [1]uint32{w}
			if _, err := d.lits(lit[:]); err != nil {
				return 0, err
			}
			return 1, nil
		}
		switch tag := int(w >> 24); tag {
		case opLit:
			if d.litLeft = int(w & maxLitRun); d.litLeft == 0 {
				return d.fail(fmt.Errorf("bitstream: decode: zero-length literal run"))
			}
		case opRun, opRef:
			d.op, d.opN = tag, int(w&maxLitRun)
			d.state = dsPayload
		case opCM:
			d.op, d.opOff, d.opN = tag, int(w>>12&maxCMRun), int(w&maxCMRun)
			d.state = dsPayload
		default:
			return d.fail(fmt.Errorf("bitstream: decode: bad opcode %#08x", w))
		}
		return 0, nil
	case dsPayload:
		d.state = dsOp
		return d.payload(w)
	}
	return d.fail(fmt.Errorf("bitstream: decode: internal state %d", d.state))
}

// payload expands the pending RUN, CM or REF op whose payload word is w.
func (d *Decoder) payload(w uint32) (int, error) {
	n := d.opN
	if n == 0 {
		return d.fail(fmt.Errorf("bitstream: decode: zero-length run"))
	}
	start := len(d.out)
	// An op running past the declared count emits the words that fit and
	// then overruns.
	k := min(n, d.rawWords-start)
	switch d.op {
	case opRun:
		d.out = append(d.out, make([]uint32, k)...)
		run := d.out[start:]
		for i := range run {
			run[i] = w
		}
	case opCM:
		// The KEEP op: copy from the live configuration memory. The frame
		// still holds its pre-load content — the loader commits FDRI
		// packets only at packet end, and the encoder never CM-references
		// a frame an earlier packet rewrote.
		far := fabric.ParseFAR(w)
		if _, err := d.l.dev.FrameIndex(far); err != nil {
			return d.fail(fmt.Errorf("bitstream: decode: CM reference: %w", err))
		}
		if flen := d.l.dev.FrameLen(); d.opOff+n > flen {
			return d.fail(fmt.Errorf("bitstream: decode: CM run [%d,%d) exceeds frame length %d", d.opOff, d.opOff+n, flen))
		}
		d.out, _ = d.l.cm.AppendFrame(d.out, far, d.opOff, d.opOff+k) // address and range checked above
	case opRef:
		off := int(w)
		if off < 0 || off+n > start {
			return d.fail(fmt.Errorf("bitstream: decode: back-reference [%d,%d) exceeds %d decoded words", off, off+n, start))
		}
		d.out = append(d.out, d.out[off:off+k]...)
	}
	d.feed(start, false)
	if err := d.end(); err != nil {
		return k - 1, err
	}
	if k < n {
		d.err = fmt.Errorf("bitstream: decode: output overruns declared %d words", d.rawWords)
		return k, d.err
	}
	return k, nil
}

// lits emits literal container words, no more than the declared count
// leaves room for, and returns how many it consumed. It stops at the
// literal that leaves the loader with an error, as a word-by-word feed
// that checks the loader after each container word does.
func (d *Decoder) lits(ws []uint32) (int, error) {
	start := len(d.out)
	d.out = append(d.out, ws[:min(len(ws), d.rawWords-start)]...)
	d.feed(start, true)
	n := len(d.out) - start
	d.litLeft -= n
	return n, d.end()
}

// feed hands the words decoded since start to the loader and folds them
// into the container CRC. The loader stops at its first error; the words
// it did not take still fold into the container CRC, unless stop cuts
// the output at the word that set the error.
func (d *Decoder) feed(start int, stop bool) {
	// Loader errors stay the loader's: they surface through its Err.
	n, _ := d.l.write(d.out[start:], &d.crc)
	if stop && d.l.err != nil {
		d.out = d.out[:start+max(n, 1)]
	}
	d.crc = crcStream(d.crc, RegFDRI, d.out[start+n:])
}

// end checks the container CRC once the declared word count is out.
func (d *Decoder) end() error {
	if len(d.out) != d.rawWords {
		return nil
	}
	d.l.flush() // the raw words may end inside a packet
	if d.crc != d.wantCRC {
		d.err = fmt.Errorf("bitstream: decode: CRC mismatch: container %#04x, computed %#04x", d.wantCRC, d.crc)
		return d.err
	}
	d.done = true
	return nil
}

// Decode feeds the whole container through a fresh decoder into the
// loader. A loader error stops Write but not the decode: it stays the
// loader's, as on the word-by-word path.
func (c *Compressed) Decode(l *Loader) error {
	d := NewDecoder(l)
	for ws := c.Words; len(ws) > 0; {
		n, _ := d.Write(ws)
		if err := d.Err(); err != nil {
			return err
		}
		ws = ws[n:]
	}
	if !d.Done() {
		return fmt.Errorf("bitstream: decode: container truncated (%d of %d words emitted)", d.Emitted(), d.rawWords)
	}
	return nil
}
