package bitstream

// Stream is a built configuration stream: the 32-bit words fed to the
// configuration port, plus the device it targets.
type Stream struct {
	Device string
	Words  []uint32
}

// SizeBytes returns the stream size in bytes as transferred through ICAP.
func (s *Stream) SizeBytes() int { return 4 * len(s.Words) }
