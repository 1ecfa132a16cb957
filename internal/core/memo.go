package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/bitlinker"
	"repro/internal/bitstream"
	"repro/internal/fabric"
)

// Memo holds the transition streams of one dynamic region of one board
// shape: per (from, to) module pair the differential configuration and
// the compressed container encoded from it, and per module the container
// of its complete stream. Like the modules themselves they depend only on
// the shape, so every board of the shape reads one Memo, and each stream
// is built once, by the first board that asks for it; a board asking for
// a stream another board is building waits for that build. It is safe for
// concurrent use. Nothing is ever evicted: the memo holds at most
// (modules + 1) × modules pairs.
type Memo struct {
	asm      *bitlinker.Assembler
	baseline *fabric.ConfigMemory

	mu    sync.RWMutex
	pairs map[pair]*transition
	fulls map[*Module]*lazy[*bitstream.Compressed]

	// assemblies counts the runs of AssembleDifferential.
	assemblies atomic.Uint64
}

// pair names one transition: to's module into a region holding from's
// (nil from: the blank baseline).
type pair struct{ from, to *Module }

// transition is one pair's memoized streams.
type transition struct {
	diff  lazy[*bitlinker.Result]
	zdiff lazy[*bitstream.Compressed]
}

// lazy is one stream, built on its first get.
type lazy[T any] struct {
	once sync.Once
	v    T
	err  error
}

// get returns the stream, building it on the first call. A build that
// fails fails for every caller: it depends only on the shape.
func (l *lazy[T]) get(build func() (T, error)) (T, error) {
	l.once.Do(func() { l.v, l.err = build() })
	return l.v, l.err
}

// slot returns m[k], adding a zero entry on first use. A present key is
// looked up under the read lock and allocates nothing.
func slot[K comparable, V any](mu *sync.RWMutex, m map[K]*V, k K) *V {
	mu.RLock()
	v := m[k]
	mu.RUnlock()
	if v != nil {
		return v
	}
	mu.Lock()
	defer mu.Unlock()
	if v = m[k]; v == nil {
		v = new(V)
		m[k] = v
	}
	return v
}

// NewMemo returns the empty memo of the region asm assembles for.
// baseline is the configuration image asm was built over: the static
// design with the region blank, the from-state of a transition out of the
// blank region.
func NewMemo(asm *bitlinker.Assembler, baseline *fabric.ConfigMemory) *Memo {
	return &Memo{asm: asm, baseline: baseline,
		pairs: make(map[pair]*transition), fulls: make(map[*Module]*lazy[*bitstream.Compressed])}
}

// Assemblies reports how many differential configurations the memo has
// assembled: one per pair asked for, whichever board asked.
func (mm *Memo) Assemblies() uint64 { return mm.assemblies.Load() }

// image is the configuration image a region holding from's module has:
// the blank baseline for nil, the module's post-load target otherwise.
func (mm *Memo) image(from *Module) *fabric.ConfigMemory {
	if from == nil {
		return mm.baseline
	}
	return from.target
}

// Differential returns the differential configuration that turns a region
// holding from's module (nil: the blank region) into one holding to's,
// assembling it once per pair. Both modules must have been assembled by
// the memo's assembler, as a manager's registered modules are.
func (mm *Memo) Differential(from, to *Module) (*bitlinker.Result, error) {
	t := slot(&mm.mu, mm.pairs, pair{from, to})
	return t.diff.get(func() (*bitlinker.Result, error) {
		mm.assemblies.Add(1)
		return mm.asm.AssembleDifferential(mm.image(from), to.placed)
	})
}

// Compressed returns the compressed container of the (from → to)
// differential, encoding it once per pair. The encoder diffs against the
// same assumed image the differential was built from, so its
// configuration-memory KEEP references are valid exactly when the
// differential itself is — under the §2.2 residency gate.
func (mm *Memo) Compressed(from, to *Module) (*bitstream.Compressed, error) {
	t := slot(&mm.mu, mm.pairs, pair{from, to})
	return t.zdiff.get(func() (*bitstream.Compressed, error) {
		res, err := mm.Differential(from, to)
		if err != nil {
			return nil, err
		}
		return bitstream.Compress(mm.baseline.Device(), res.Stream, mm.image(from), res.Frames)
	})
}

// CompleteCompressed returns the RLE-only container of the module's
// complete stream, encoding it once per module. It carries no
// configuration-memory references, so it is as state-independent as the
// complete stream.
func (mm *Memo) CompleteCompressed(mod *Module) (*bitstream.Compressed, error) {
	z := slot(&mm.mu, mm.fulls, mod)
	return z.get(func() (*bitstream.Compressed, error) {
		return bitstream.Compress(mm.baseline.Device(), mod.complete.Stream, nil, mod.complete.Frames)
	})
}
