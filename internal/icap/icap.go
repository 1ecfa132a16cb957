// Package icap models the OPB HWICAP: the configuration memory controller
// that lets the embedded CPU change the FPGA's configuration from inside,
// through the Internal Configuration Access Port (§3.1). Software writes
// stream words into the write FIFO; an internal engine feeds them to the
// configuration logic at one byte per ICAP clock.
package icap

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/sim"
)

// Register offsets.
const (
	RegWriteFIFO = 0x00 // write: one stream word
	RegStatus    = 0x04 // read: status bits
	RegControl   = 0x08 // write: control bits
)

// Status bits.
const (
	StatDone  = 1 << 0 // last configuration sequence completed
	StatError = 1 << 1 // configuration error (sticky)
	StatBusy  = 1 << 2 // ICAP engine draining
)

// Control bits.
const (
	CtrlReset = 1 << 0 // reset the configuration logic interface
)

// HWICAP is the OPB slave wrapping the ICAP.
type HWICAP struct {
	k      *sim.Kernel
	clk    *sim.Clock // ICAP clock (the OPB clock in both systems)
	loader *bitstream.Loader

	// bufWords is the internal BRAM buffer depth; the engine drains it at
	// bytesPerCycle bytes per ICAP cycle.
	bufWords int

	// dec, while decoding, sits between the write FIFO and the
	// configuration logic: software pushes compressed container words and
	// the decoder expands them in flight. The drain time is charged per
	// DECODED word — the byte-wide configuration port consumes every
	// expanded word at the same 4 cycles/word, so compression shrinks the
	// wire traffic, not the CPU-path port time. dec is made at the first
	// ArmDecoder and reset by each later one, keeping its output buffer,
	// until a failed container drops it.
	dec *bitstream.Decoder
	// armed runs from ArmDecoder to DisarmDecoder. decoding is armed with
	// no reset since: a reset takes the decoder out of the FIFO path, and
	// DisarmDecoder still reports the container it cut short.
	armed, decoding bool

	busyUntil sim.Time
	words     uint64
}

// New returns a HWICAP bound to the device's configuration loader.
func New(k *sim.Kernel, clk *sim.Clock, loader *bitstream.Loader) *HWICAP {
	return &HWICAP{k: k, clk: clk, loader: loader, bufWords: 512}
}

// Name implements bus.Slave.
func (h *HWICAP) Name() string { return "opb-hwicap" }

// Loader exposes the configuration logic (for binding callbacks).
func (h *HWICAP) Loader() *bitstream.Loader { return h.loader }

// WordsWritten reports how many stream words software pushed.
func (h *HWICAP) WordsWritten() uint64 { return h.words }

// ArmDecoder inserts a reset compressed-stream decoder in front of the
// configuration logic. Subsequent FIFO writes are container words.
func (h *HWICAP) ArmDecoder() {
	if h.dec == nil {
		h.dec = bitstream.NewDecoder(h.loader)
	}
	h.dec.Reset()
	h.armed, h.decoding = true, true
}

// DisarmDecoder removes the decoder and reports whether the container
// decoded completely and cleanly: nil when it was not armed, an error when
// a reset cut the container short. Decode errors are also visible in the
// status register while the decoder sits in the FIFO path.
func (h *HWICAP) DisarmDecoder() error {
	if !h.armed {
		return nil
	}
	h.armed, h.decoding = false, false
	err := h.dec.Err()
	if err == nil && !h.dec.Done() {
		err = fmt.Errorf("icap: compressed container incomplete (%d words decoded)", h.dec.Emitted())
	}
	if err != nil {
		h.dec = nil // with its output buffer, however large the header declared
	}
	return err
}

// Read implements bus.Slave.
func (h *HWICAP) Read(addr uint32, size int) (uint64, int) {
	switch addr {
	case RegStatus:
		var s uint64
		if h.loader.Done() {
			s |= StatDone
		}
		if h.loader.Err() != nil || h.decoding && h.dec.Err() != nil {
			s |= StatError
		}
		if h.k.Now() < h.busyUntil {
			s |= StatBusy
		}
		return s, 1
	default:
		return 0, 1
	}
}

// Write implements bus.Slave.
func (h *HWICAP) Write(addr uint32, val uint64, size int) int {
	switch addr {
	case RegWriteFIFO:
		return h.push(val)
	case RegControl:
		if val&CtrlReset != 0 {
			h.loader.Reset()
			h.decoding = false
		}
		return 1
	default:
		return 1
	}
}

// WriteStream implements bus.StreamSlave: a run of writes to the write
// FIFO pushes each word straight to the engine, as Write does. With the
// decoder disarmed the sink takes inert runs in bulk.
func (h *HWICAP) WriteStream(addr uint32, size int) bus.Sink {
	switch {
	case addr != RegWriteFIFO:
		return bus.SinkFunc(func(val uint64) int { return h.Write(addr, val, size) })
	case h.decoding:
		return bus.SinkFunc(h.push)
	}
	return fifoSink{h}
}

// fifoSink is the write FIFO with the decoder disarmed. Its inert words are
// FDRI frame data: each takes one port slot whatever its value, and the
// loader only folds it into the CRC and the packet's frame buffer.
type fifoSink struct{ h *HWICAP }

func (s fifoSink) Write(val uint64) int { return s.h.push(val) }

func (s fifoSink) Inert() int {
	if s.h.decoding {
		return 0
	}
	return s.h.loader.Inert()
}

func (s fifoSink) Record(ch *sim.Chain) {
	ch.Time(&s.h.busyUntil)
	ch.Count(&s.h.words)
}

func (s fifoSink) WriteWords(ws []uint32) { s.h.loader.WriteWords(ws) }

// push accepts one stream word into the write FIFO and returns the OPB
// wait cycles.
func (h *HWICAP) push(val uint64) int {
	h.words++
	// The engine needs 4 ICAP cycles per word (byte-wide port). If the
	// write FIFO backlog exceeds the buffer, the OPB side stalls.
	drain := h.clk.Cycles(4)
	now := h.k.Now()
	if h.busyUntil < now {
		h.busyUntil = now
	}
	// The configuration logic consumes the word; errors are reported via
	// the status register, as on hardware. With the decoder armed the port
	// drains one slot per DECODED word the container word expanded into.
	consumed := 1
	if h.decoding {
		consumed, _ = h.dec.WriteWord(uint32(val)) // sticky: DisarmDecoder and the status register report it
	} else {
		_ = h.loader.WriteWord(uint32(val))
	}
	h.busyUntil += sim.Time(consumed) * drain
	waits := 1
	if backlog := h.busyUntil - now; backlog > sim.Time(h.bufWords)*drain {
		waits += int(h.clk.CyclesIn(backlog - sim.Time(h.bufWords)*drain))
	}
	return waits
}
