// Package plan chooses the cheapest safe reconfiguration stream for a
// dynamic area. The paper's §2.2 observation is that a differential partial
// bitstream — only the frames that differ from what is resident — is far
// smaller and faster through the HWICAP than a complete configuration, but
// is correct only when the assumed resident state matches reality. The
// planner encodes that rule as a type: a Plan names the stream kind AND the
// assumed from-state, so the load path can verify the assumption at issue
// time, making the stale-differential hazard impossible by construction.
//
// The planner keeps no tables of its own: it prices every candidate through
// its Source, which (as *core.Manager) assembles and memoizes each stream
// once per (from, to) module pair, so repeated planning over a
// long-running workload never re-assembles a differential.
package plan

import "fmt"

// StreamKind is the kind of configuration stream a plan issues.
type StreamKind int

const (
	// StreamNone: the wanted module is already resident — no ICAP traffic.
	StreamNone StreamKind = iota
	// StreamDifferential: only the frames that differ from the (verified)
	// resident state are written. Smallest and fastest, state-dependent.
	StreamDifferential
	// StreamComplete: every region frame is written. Correct regardless of
	// prior state — the worst-case fallback.
	StreamComplete
	// StreamCompressed: an opcode-compressed container that decodes on the
	// fly at the ICAP into a complete or differential stream (Base names
	// which). Fewer bytes on the wire; the configuration port still
	// consumes every decoded word, so Raw carries the decoded size.
	StreamCompressed
)

// String returns the kind as a short stable label.
func (k StreamKind) String() string {
	switch k {
	case StreamNone:
		return "none"
	case StreamDifferential:
		return "differential"
	case StreamComplete:
		return "complete"
	case StreamCompressed:
		return "compressed"
	}
	return fmt.Sprintf("StreamKind(%d)", int(k))
}

// Plan is one chosen reconfiguration action: bring Module into the region,
// using the given stream kind. For a differential stream, From records the
// assumed resident state ("" = the blank post-boot baseline) that the load
// path must re-verify before streaming.
type Plan struct {
	Module string
	From   string
	Kind   StreamKind
	// Base names the stream a compressed container decodes into
	// (StreamComplete or StreamDifferential); StreamNone otherwise. A
	// complete-based container uses no configuration-memory references and
	// is as state-independent as the complete stream itself; a
	// differential-based one inherits the §2.2 residency precondition.
	Base StreamKind
	// Bytes and Frames size the chosen stream (0 for StreamNone). For a
	// compressed stream Bytes is the wire (container) size.
	Bytes  int
	Frames int
	// Raw is the decoded stream size in bytes — what the configuration
	// port consumes. Equal to Bytes except for compressed streams.
	Raw int
}

// Source sizes the streams a planner may choose between. *core.Manager
// implements it and memoizes every stream it sizes, so repeated planning
// is cheap.
type Source interface {
	// Has reports whether the module is registered.
	Has(name string) bool
	// CompleteSize returns the byte and frame count of the module's
	// complete configuration stream.
	CompleteSize(name string) (bytes, frames int, err error)
	// DifferentialSize returns the byte and frame count of the
	// differential stream for the (from → to) transition. from == ""
	// means the blank baseline. It errors when no differential exists.
	DifferentialSize(from, to string) (bytes, frames int, err error)
	// CompressedSize sizes the compressed container derived from the
	// (from → to) differential stream: wire bytes, decoded (raw) bytes
	// and frame count. It errors when no differential exists.
	CompressedSize(from, to string) (bytes, raw, frames int, err error)
	// CompleteCompressedSize sizes the compressed container derived from
	// the module's complete stream (RLE only, state-independent).
	CompleteCompressedSize(name string) (bytes, raw, frames int, err error)
}

// Planner chooses streams over one dynamic area. Like the Source it reads,
// it is not safe for concurrent use: the platform plans under its region's
// system lock.
type Planner struct {
	src      Source
	compress bool
}

// New returns a planner over the stream source.
func New(src Source) *Planner {
	return &Planner{src: src}
}

// SetCompression toggles compressed-stream planning. Off (the default) the
// planner's choices are byte-identical to the three-kind planner; on, the
// compressed container joins the candidates whenever it is the smallest on
// the wire.
func (p *Planner) SetCompression(on bool) { p.compress = on }

// Plan returns the cheapest safe stream that makes want resident, given the
// tracked resident state. authoritative reports whether the tracked state
// is known to match the device (the manager's region-hash verification);
// when it is not, only the state-independent complete stream is safe.
func (p *Planner) Plan(resident string, authoritative bool, want string) (Plan, error) {
	if !p.src.Has(want) {
		return Plan{}, fmt.Errorf("plan: unknown module %q", want)
	}
	if authoritative && resident == want {
		return Plan{Module: want, From: resident, Kind: StreamNone}, nil
	}
	cb, cf, err := p.src.CompleteSize(want)
	if err != nil {
		return Plan{}, err
	}
	best := Plan{Module: want, Kind: StreamComplete, Bytes: cb, Frames: cf, Raw: cb}
	if p.compress {
		// The complete-based container carries no configuration-memory
		// references, so it is as state-independent as the complete
		// stream it decodes into.
		if zb, zraw, zf, err := p.src.CompleteCompressedSize(want); err == nil && zb < best.Bytes {
			best = Plan{Module: want, Kind: StreamCompressed, Base: StreamComplete,
				Bytes: zb, Frames: zf, Raw: zraw}
		}
	}
	if !authoritative {
		return best, nil
	}
	// Safety gate: a differential — compressed or not — is only offered
	// against an authoritative resident state, and the chosen From is
	// carried in the plan so the manager re-verifies it at load time.
	if db, df, err := p.src.DifferentialSize(resident, want); err == nil && db < best.Bytes {
		best = Plan{Module: want, From: resident, Kind: StreamDifferential,
			Bytes: db, Frames: df, Raw: db}
	}
	if p.compress {
		if zb, zraw, zf, err := p.src.CompressedSize(resident, want); err == nil && zb < best.Bytes {
			best = Plan{Module: want, From: resident, Kind: StreamCompressed, Base: StreamDifferential,
				Bytes: zb, Frames: zf, Raw: zraw}
		}
	}
	return best, nil
}

// RestoreBytes is the planner's state-independent estimate, in wire
// bytes, of re-hosting the module later: the (blank → module)
// differential, falling back to the complete stream when no differential
// exists — exactly the candidates Plan would weigh for a future
// transition onto a blank or unknown region. A differential's frame count
// is dominated by the wider of the two components, so the blank-baseline
// pair is a stable proxy for any from-state. With compression enabled the
// compressed containers join the candidates, because Plan would pick one
// whenever it is smaller: a prefetcher's profit and eviction arithmetic
// must price restores at the bytes a restore would actually stream, or a
// 3x-compressible module looks three times more expensive to evict than
// it is.
func (p *Planner) RestoreBytes(name string) (int, error) {
	best, _, err := p.src.DifferentialSize("", name)
	if err != nil {
		if best, _, err = p.src.CompleteSize(name); err != nil {
			return 0, err
		}
	}
	if p.compress {
		if zb, _, _, err := p.src.CompleteCompressedSize(name); err == nil && zb < best {
			best = zb
		}
		if zb, _, _, err := p.src.CompressedSize("", name); err == nil && zb < best {
			best = zb
		}
	}
	return best, nil
}
