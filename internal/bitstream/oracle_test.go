package bitstream

import (
	"fmt"
	"testing"

	"repro/internal/fabric"
)

// The decoder oracle: every container runs through refDecoder and through
// Decoder on the three paths a container takes — one container word at a
// time (the HWICAP's armed FIFO), whole through Write (a DMA engine) and
// through Compressed.Decode — and both must leave exactly the same
// observable state behind.

// DecodeOracle decodes containers against one assumed image, on two
// scratch copies of it: one for the reference, one for Decoder. Between
// runs it restores every frame a run wrote, so a run costs no clone. It is
// exported for the tests of this package that build real board containers
// (package bitstream_test), which cannot be built from inside it.
type DecodeOracle struct {
	assumed *fabric.ConfigMemory
	mems    [2]*fabric.ConfigMemory
	epochs  [2]uint64
	writes  [2]uint64
}

func NewDecodeOracle(assumed *fabric.ConfigMemory) *DecodeOracle {
	o := &DecodeOracle{assumed: assumed}
	for k := range o.mems {
		o.mems[k] = assumed.Clone()
	}
	o.mark(0)
	o.mark(1)
	return o
}

// mark makes the memory's current frames the ones its next run starts from.
func (o *DecodeOracle) mark(k int) {
	o.epochs[k], o.writes[k] = o.mems[k].Epoch(), o.mems[k].FrameWrites()
}

// written lists the frames memory k has written since its mark.
func (o *DecodeOracle) written(k int) []int {
	var idx []int
	for i := 0; i < o.assumed.Device().NumFrames(); i++ {
		if o.mems[k].ChangedSince(i, i+1, o.epochs[k]) {
			idx = append(idx, i)
		}
	}
	return idx
}

// restore writes the assumed content back into every frame memory k wrote
// since its mark, and marks it again.
func (o *DecodeOracle) restore(t testing.TB, k int) {
	t.Helper()
	dev := o.assumed.Device()
	for _, i := range o.written(k) {
		far, _ := dev.FARAt(i)
		f, _ := o.assumed.ReadFrame(far)
		if err := o.mems[k].WriteFrame(far, f); err != nil {
			t.Fatal(err)
		}
	}
	o.mark(k)
}

// sameFrames fails unless both memories wrote the same frames, as often and
// with the same content, since their marks.
func (o *DecodeOracle) sameFrames(t testing.TB, what string) {
	t.Helper()
	if a, b := o.mems[0].FrameWrites()-o.writes[0], o.mems[1].FrameWrites()-o.writes[1]; a != b {
		t.Fatalf("%s: %d frame writes, reference %d", what, b, a)
	}
	ref, got := o.written(0), o.written(1)
	if len(ref) != len(got) {
		t.Fatalf("%s: wrote %d frames, reference %d", what, len(got), len(ref))
	}
	dev := o.assumed.Device()
	for j, i := range ref {
		if got[j] != i {
			t.Fatalf("%s: wrote frame %d, reference frame %d", what, got[j], i)
		}
		far, _ := dev.FARAt(i)
		fa, _ := o.mems[0].ReadFrame(far)
		fb, _ := o.mems[1].ReadFrame(far)
		if !wordsEqual(fa, fb) {
			t.Fatalf("%s: frame %v differs from the reference", what, far)
		}
	}
}

// decodeState is what a decode leaves observable.
type decodeState struct {
	err     string
	done    bool
	emitted int
	out     []uint32
	lerr    string
	ldone   bool
	stats   [3]uint64
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func loaderState(s decodeState, l *Loader) decodeState {
	s.lerr, s.ldone = errText(l.Err()), l.Done()
	s.stats[0], s.stats[1], s.stats[2] = l.Stats()
	return s
}

func (d *refDecoder) observed() decodeState {
	return loaderState(decodeState{err: errText(d.err), done: d.done, emitted: d.emitted, out: d.out}, d.l)
}

func (d *Decoder) observed() decodeState {
	return loaderState(decodeState{err: errText(d.err), done: d.done, emitted: d.Emitted(), out: d.out}, d.l)
}

// sameState fails unless got equals the reference state.
func sameState(t testing.TB, what string, ref, got decodeState) {
	t.Helper()
	if ref.err != got.err || ref.done != got.done || ref.emitted != got.emitted {
		t.Fatalf("%s: decoder err %q done %v emitted %d, reference %q %v %d",
			what, got.err, got.done, got.emitted, ref.err, ref.done, ref.emitted)
	}
	if ref.lerr != got.lerr || ref.ldone != got.ldone || ref.stats != got.stats {
		t.Fatalf("%s: loader err %q done %v stats %v, reference %q %v %v",
			what, got.lerr, got.ldone, got.stats, ref.lerr, ref.ldone, ref.stats)
	}
	if ref.out != nil && !wordsEqual(ref.out, got.out) {
		t.Fatalf("%s: decoded output differs from the reference (%d vs %d words)", what, len(got.out), len(ref.out))
	}
}

// refFeed is a DMA engine's feed on the reference decoder: one container
// word at a time, stopping after the first word that leaves the decoder or
// the loader with an error, the decoder's first.
func refFeed(d *refDecoder, container []uint32) (int, error) {
	for i, w := range container {
		if _, err := d.WriteWord(w); err != nil {
			return i + 1, err
		}
		if err := d.l.Err(); err != nil {
			return i + 1, err
		}
	}
	return len(container), nil
}

// refDecode is Compressed.Decode on the reference decoder.
func refDecode(d *refDecoder, container []uint32) error {
	for _, w := range container {
		if _, err := d.WriteWord(w); err != nil {
			return err
		}
	}
	if !d.Done() {
		return fmt.Errorf("bitstream: decode: container truncated (%d of %d words emitted)", d.Emitted(), d.rawWords)
	}
	return nil
}

// check runs the container through all three paths on both decoders.
func (o *DecodeOracle) Check(t testing.TB, what string, container []uint32) {
	t.Helper()
	// The armed HWICAP: every container word is pushed, errors or not, and
	// each push's count sets the port time.
	ref, got := newRefDecoder(NewLoader(o.mems[0])), NewDecoder(NewLoader(o.mems[1]))
	for i, w := range container {
		rn, rerr := ref.WriteWord(w)
		gn, gerr := got.WriteWord(w)
		if rn != gn || errText(rerr) != errText(gerr) {
			t.Fatalf("%s: word %d (%#08x): WriteWord = %d, %v; reference %d, %v", what, i, w, gn, gerr, rn, rerr)
		}
	}
	sameState(t, what+" word by word", ref.observed(), got.observed())
	o.sameFrames(t, what+" word by word")
	o.restore(t, 0)
	o.restore(t, 1)

	// A DMA engine: the whole container in one Write.
	ref, got = newRefDecoder(NewLoader(o.mems[0])), NewDecoder(NewLoader(o.mems[1]))
	rn, rerr := refFeed(ref, container)
	gn, gerr := got.Write(container)
	if rn != gn || errText(rerr) != errText(gerr) {
		t.Fatalf("%s: Write = %d, %v; reference %d, %v", what, gn, gerr, rn, rerr)
	}
	sameState(t, what+" Write", ref.observed(), got.observed())
	o.sameFrames(t, what+" Write")
	o.restore(t, 0)
	o.restore(t, 1)

	// Compressed.Decode, which decodes on past loader errors.
	ref = newRefDecoder(NewLoader(o.mems[0]))
	rerr = refDecode(ref, container)
	l := NewLoader(o.mems[1])
	gerr = (&Compressed{Words: container}).Decode(l)
	if errText(rerr) != errText(gerr) {
		t.Fatalf("%s: Decode = %v, reference %v", what, gerr, rerr)
	}
	sameState(t, what+" Decode", loaderState(decodeState{}, ref.l), loaderState(decodeState{}, l))
	o.sameFrames(t, what+" Decode")
	o.restore(t, 0)
	o.restore(t, 1)
}

// checkTruncations cuts a clean container at every word boundary and
// checks Write on each prefix against the reference after as many words.
// The reference runs once, a word at a time, and a clean prefix never
// stops it early, so its state after cut words is the feed's on the cut
// container; the HWICAP path steps beside it.
func (o *DecodeOracle) CheckTruncations(t testing.TB, container []uint32) {
	t.Helper()
	ref, step := newRefDecoder(NewLoader(o.mems[0])), NewDecoder(NewLoader(o.assumed.Clone()))
	for cut := 0; ; cut++ {
		what := fmt.Sprintf("cut at %d of %d", cut, len(container))
		got := NewDecoder(NewLoader(o.mems[1]))
		if n, err := got.Write(container[:cut]); n != cut || err != nil {
			t.Fatalf("%s: Write = %d, %v on a clean prefix", what, n, err)
		}
		want := ref.observed()
		sameState(t, what, want, got.observed())
		sameState(t, what+" word by word", want, step.observed())
		o.sameFrames(t, what)
		o.restore(t, 1)
		if cut == len(container) {
			break
		}
		rn, rerr := ref.WriteWord(container[cut])
		sn, serr := step.WriteWord(container[cut])
		if rn != sn || rerr != nil || serr != nil {
			t.Fatalf("%s: WriteWord = %d, %v; reference %d, %v", what, sn, serr, rn, rerr)
		}
	}
	if !ref.Done() {
		t.Fatal("the uncut container did not decode completely")
	}
	o.restore(t, 0)
}

// ops lists a well-formed container's op words: the index of each and the
// decoded-output position its words start at.
func ops(c []uint32) (idx, pos []int) {
	p := 0
	for i := 3; i < len(c); {
		n := int(c[i] & maxLitRun)
		if int(c[i]>>24) == opCM {
			n = int(c[i] & maxCMRun)
		}
		idx, pos = append(idx, i), append(pos, p)
		p += n
		if int(c[i]>>24) == opLit {
			i += 1 + n
		} else {
			i += 2
		}
	}
	return idx, pos
}

// CheckTable runs the oracle over the clean container c of the stream raw
// and over damaged copies: every truncation, a bit flip in every op word,
// a damaged FAR inside a literal run (the loader errors before the
// container CRC), trailing words after done, a RUN past the declared count
// and a CRC mismatch on the last word.
func (o *DecodeOracle) CheckTable(t testing.TB, c, raw []uint32) {
	t.Helper()
	damaged := func(edit func([]uint32) []uint32) []uint32 {
		return edit(append([]uint32(nil), c...))
	}
	o.CheckTruncations(t, c)
	o.Check(t, "clean", c)
	idx, pos := ops(c)
	for _, i := range idx {
		for _, bit := range []uint{0, 12, 27} {
			o.Check(t, fmt.Sprintf("bit %d of op word %d", bit, i), damaged(func(w []uint32) []uint32 {
				w[i] ^= 1 << bit
				return w
			}))
		}
	}
	o.Check(t, "trailing words", damaged(func(w []uint32) []uint32 { return append(w, w[len(w)-1], 0) }))

	// Each remaining case must fail the way it is named for; the reference
	// feed shows which error came first.
	expect := func(what string, words []uint32, want func(*refDecoder, error) bool) {
		t.Helper()
		l := NewLoader(o.assumed.Clone())
		ref := newRefDecoder(l)
		if _, err := refFeed(ref, words); !want(ref, err) {
			t.Fatalf("%s: reference feed stopped with %v (decoder %v, loader %v)", what, err, ref.Err(), l.Err())
		}
		o.Check(t, what, words)
	}
	farHdr := type1Header(opWrite, RegFAR, 1)
	farAt := -1
	for _, i := range idx {
		if c[i]>>24 != opLit {
			continue
		}
		for k := i + 1; k < i+int(c[i]&maxLitRun) && farAt < 0; k++ {
			if c[k] == farHdr {
				farAt = k + 1
			}
		}
	}
	if farAt < 0 {
		t.Fatal("no FAR write inside a literal run")
	}
	expect("damaged FAR", damaged(func(w []uint32) []uint32 {
		w[farAt] = 0xF0000000 // an unknown block type
		return w
	}), func(d *refDecoder, err error) bool { return d.Err() == nil && err != nil && err == d.l.Err() })
	runAt := -1
	for j, i := range idx {
		if c[i]>>24 == opRun && c[i]&maxLitRun >= 2 {
			runAt = j
		}
	}
	if runAt < 0 {
		t.Fatal("no RUN of two or more words")
	}
	expect("RUN past the declared count", damaged(func(w []uint32) []uint32 {
		n := pos[runAt] + 1
		w[1], w[2] = uint32(n), uint32(FrameCRC(0, raw[:n]))
		return w
	}), func(d *refDecoder, err error) bool { return d.Done() && err != nil && err == d.Err() })
	expect("CRC mismatch on the last word", damaged(func(w []uint32) []uint32 {
		w[2] ^= 1
		return w
	}), func(d *refDecoder, err error) bool { return !d.Done() && d.Emitted() == len(raw) && err == d.Err() })
}

// TestDecoderMatchesReferenceOnFixture runs the oracle table over the codec
// fixture's container, and over a zeroed one and a bit flip in every word.
func TestDecoderMatchesReferenceOnFixture(t *testing.T) {
	dev, s, assumed, frames, _ := compressFixture(t, 41)
	c, err := Compress(dev, s, assumed, len(frames))
	if err != nil {
		t.Fatal(err)
	}
	o := NewDecodeOracle(assumed)
	o.CheckTable(t, c.Words, s.Words)
	o.Check(t, "zeroed", make([]uint32, len(c.Words)))
	for i := range c.Words {
		words := append([]uint32(nil), c.Words...)
		words[i] ^= 1 << (i % 32)
		o.Check(t, fmt.Sprintf("bit %d of word %d", i%32, i), words)
	}
}
