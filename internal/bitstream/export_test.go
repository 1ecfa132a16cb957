package bitstream

// Hooks for the external tests, which build their streams on the
// platform's boards.

// FoldedCRC flushes the loader's pending frame data and returns its CRC:
// what a CRC register write would be checked against after the words fed
// so far.
func FoldedCRC(l *Loader) uint16 {
	l.flush()
	return l.crc
}

// ContainerCRC flushes the loader and returns the decoder's container CRC.
func ContainerCRC(d *Decoder) uint16 {
	d.l.flush()
	return d.crc
}

// TermFrames counts the frames whose CRC term the loader holds.
func TermFrames(l *Loader) int {
	n := 0
	for _, t := range l.terms {
		n += int(t >> 16)
	}
	return n
}

// LoadPerWord feeds ws to l one WriteWord at a time and folds each word
// into the CRC as it arrives: the per-word fold the loader's per-frame
// fold must equal.
func LoadPerWord(l *Loader, ws []uint32) {
	for _, w := range ws {
		_ = l.WriteWord(w) // sticky, as on the HWICAP
		l.flush()
	}
}

// RefDecoder is the word-by-word reference decoder (refDecoder), which
// folds both CRCs over each decoded word as it emits it.
type RefDecoder = refDecoder

// NewRefDecoder returns a reference decoder feeding l.
func NewRefDecoder(l *Loader) *RefDecoder { return newRefDecoder(l) }

// CRC returns the reference decoder's container CRC.
func (d *refDecoder) CRC() uint16 { return d.crc }
