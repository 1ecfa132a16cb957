package icap

import (
	"fmt"

	"repro/internal/bitstream"
	"repro/internal/sim"
)

// dmaSetupCycles is the fixed descriptor-setup cost of one DMA transfer
// (fetching the descriptor and programming the engine).
const dmaSetupCycles = 32

// DMA is one region dock's configuration DMA engine: it master-reads a
// prepared stream from memory and feeds the configuration port without CPU
// stores, so sibling regions' loads on one member overlap in simulated time
// — each engine occupies its own port window while the CPU goes on
// dispatching.
//
// The engine's transfer model is deliberately simple and race-free: the
// stream CONTENT is applied to the configuration logic atomically when the
// transfer begins (the configuration sequence is indivisible — there is no
// observable intermediate state between Begin and the transfer's end), and
// only the TIME window [start, done) is what overlaps with sibling engines
// and CPU work. Begin returns that window; the caller settles it with the
// member's timeline when the result is needed.
//
// Unlike the CPU path, a DMA transfer of a compressed container is bound by
// the WIRE words: the in-engine decompressor performs masked frame writes,
// so KEEP words never transit the port. That makes compressed+DMA the fast
// path the S8 table measures.
type DMA struct {
	k      *sim.Kernel
	clk    *sim.Clock
	loader *bitstream.Loader
	// dec is the engine's decompressor, made at its first compressed
	// transfer and reset for each container, so its output buffer is
	// allocated once. A failed transfer drops it: a damaged header can
	// declare up to 2^28 words, and no such buffer may outlive the
	// transfer.
	dec *bitstream.Decoder

	busyUntil sim.Time
	transfers uint64
	words     uint64

	// obs, when set, observes every transfer's port window — the trace
	// spine renders it as a DMA-window span without icap depending on the
	// tracer package. Called under the same serialization as Begin.
	obs func(start, done sim.Time, words int, compressed bool)
}

// NewDMA returns a DMA engine feeding the device's configuration logic.
func NewDMA(k *sim.Kernel, clk *sim.Clock, loader *bitstream.Loader) *DMA {
	return &DMA{k: k, clk: clk, loader: loader}
}

// Stats reports completed transfers and wire words moved.
func (d *DMA) Stats() (transfers, words uint64) { return d.transfers, d.words }

// SetObserver installs the port-window observer; nil disables it.
func (d *DMA) SetObserver(fn func(start, done sim.Time, words int, compressed bool)) {
	d.obs = fn
}

// Begin starts one transfer: the stream content is applied to the
// configuration logic now, and the engine's port window [start, done) is
// returned. start is the later of now and the end of the engine's previous
// window; done adds the descriptor setup and the per-wire-word drain. On a
// configuration error the loader is reset (the engine aborts the transfer
// cleanly) and the window still stands — the port was occupied until the
// error was raised.
func (d *DMA) Begin(words []uint32, compressed bool) (start, done sim.Time, err error) {
	start = d.k.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	done = start + d.clk.Cycles(uint64(dmaSetupCycles+4*len(words)))
	d.busyUntil = done
	d.transfers++
	d.words += uint64(len(words))
	if d.obs != nil {
		d.obs(start, done, len(words), compressed)
	}
	if err := d.feed(words, compressed); err != nil {
		d.loader.Reset()
		d.dec = nil
		return start, done, err
	}
	return start, done, nil
}

// feed applies the transfer's content: a raw stream goes to the loader in
// one call, a compressed container through the decompressor, which expands
// each op as one slice. Either stops at the first word that leaves the
// decoder or the loader with an error.
func (d *DMA) feed(words []uint32, compressed bool) error {
	if compressed {
		if d.dec == nil {
			d.dec = bitstream.NewDecoder(d.loader)
		}
		d.dec.Reset()
		if _, err := d.dec.Write(words); err != nil {
			return err
		}
		if !d.dec.Done() {
			return fmt.Errorf("icap: dma: compressed container incomplete (%d words decoded)", d.dec.Emitted())
		}
	} else if _, err := d.loader.Write(words); err != nil {
		return err
	}
	if err := d.loader.Err(); err != nil {
		return err
	}
	if !d.loader.Done() {
		return fmt.Errorf("icap: dma: configuration sequence did not complete")
	}
	return nil
}
