// Package core implements the run-time reconfiguration manager — the
// paper's methodology as a library. It owns one dynamic area: it keeps the
// store of modules whose complete partial configurations the BitLinker flow
// assembled (NewModule, once per board shape), reads the differential and
// compressed streams between them from the region's Memo (once per board
// shape too), streams them through the HWICAP under CPU control, verifies
// that the static design was not disturbed, and binds the dynamic region's
// behavioural core to the dock after every reconfiguration by hashing the
// configuration contents.
package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitlinker"
	"repro/internal/bitstream"
	"repro/internal/cpu"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/icap"
	"repro/internal/plan"
	"repro/internal/sim"
)

// Config wires a Manager into a platform.
type Config struct {
	Device *fabric.Device
	Region fabric.Region
	// ConfigMem is the device's configuration memory. It must be guarded
	// (fabric.ConfigMemory.Guard) over every dynamic region of the
	// floorplan: the static design is everything outside all of them, so a
	// sibling region's reconfiguration never reads as static corruption.
	ConfigMem *fabric.ConfigMemory
	// Memo is the region's transition memo, shared by every board of the
	// shape. Its assembler is the region's BitLinker instance: every
	// registered Module was assembled by it, and it assembles the naive
	// streams. Its baseline is the configuration image right after the
	// initial full configuration (static design present, region blank).
	// The manager's differential and compressed streams are the memo's.
	Memo *Memo
	// Loader is the device's configuration logic (shared with the HWICAP).
	Loader *bitstream.Loader
	// CPU drives the HWICAP; ICAPBase is its bus address.
	CPU      *cpu.CPU
	ICAPBase uint32
	// ICAP is the HWICAP slave itself. The CPU path reaches it through the
	// bus at ICAPBase; the direct reference arms the compressed-stream
	// decoder front-end.
	ICAP *icap.HWICAP
	// Bind attaches a behavioural core to the dock.
	Bind func(hw.Core)
	// Kernel provides timing for configuration statistics.
	Kernel *sim.Kernel
}

// Module is one assembled module of a dynamic region: its relocatable
// component placed against the region's right edge, the side the paper's
// dock macros take, the complete partial configuration BitLinker merged
// into the static baseline, the configuration image that stream leaves in
// the device, and the factory of its behavioural core. All of it depends
// only on (device, floorplan region, component), so every board of one
// shape registers the same Module; nothing writes it after NewModule
// returns.
type Module struct {
	asm     *bitlinker.Assembler
	placed  bitlinker.Placed
	factory func() hw.Core
	// complete is the module's complete partial configuration, target the
	// post-load configuration image: the assumed state a differential
	// stream away from the module is assembled against.
	complete *bitlinker.Result
	target   *fabric.ConfigMemory
}

// NewModule places the component against the right edge of the
// assembler's region and assembles its complete configuration and
// post-load image once.
func NewModule(asm *bitlinker.Assembler, comp *bitlinker.Component, factory func() hw.Core) (*Module, error) {
	placed := bitlinker.Placed{C: comp, ColOff: asm.Region().W - comp.W}
	res, err := asm.Assemble(placed)
	if err != nil {
		return nil, fmt.Errorf("core: assembling %s: %w", comp.Name, err)
	}
	return &Module{asm: asm, placed: placed, factory: factory, complete: res, target: asm.Target(placed)}, nil
}

// Name returns the module's name.
func (mod *Module) Name() string { return mod.placed.C.Name }

// Complete returns the module's complete partial configuration.
func (mod *Module) Complete() *bitlinker.Result { return mod.complete }

// Target returns the configuration image the complete stream leaves in
// the device.
func (mod *Module) Target() *fabric.ConfigMemory { return mod.target }

// entry is one registered module and how often this manager bound it.
type entry struct {
	mod   *Module
	loads uint64
}

// Counters are a manager's cumulative load, scrub and fault statistics.
// Every load that occupied a configuration port counts once in Loads and
// once under the stream kind it pushed, or under AbortedLoads when it was
// stopped at a stream boundary:
//
//	Loads == CompleteLoads + DiffLoads + CompressedLoads + AbortedLoads
//
// DMALoads counts the loads a dock DMA engine carried, whatever their
// kind; the rest went through CPU stores.
type Counters struct {
	Loads           uint64
	LoadTime        sim.Time
	StreamedBytes   uint64
	CompleteLoads   uint64
	DiffLoads       uint64
	CompressedLoads uint64
	AbortedLoads    uint64
	DMALoads        uint64
	// DiffAssemblies counts the runs of AssembleDifferential by the
	// region's memo. Every board of the shape shares the memo, so it is
	// the shape region's count, not this manager's: a transition any board
	// has assembled, loaded or sized again on any board, does not grow it.
	DiffAssemblies uint64
	// ScrubPasses counts readback scrubs and ScrubFaults the passes that
	// detected corruption; FaultsInjected counts the bit-flips InjectFault
	// applied.
	ScrubPasses    uint64
	ScrubFaults    uint64
	FaultsInjected uint64
}

// Manager is the run-time reconfiguration manager of one dynamic area.
type Manager struct {
	cfg     Config
	modules map[string]*entry
	byHash  map[uint64]*entry
	current string

	// residentOK marks the tracked resident state as authoritative: the
	// region's content hash matched a registered module (or the blank
	// baseline) after the last configuration. Only then may a differential
	// stream be issued against it.
	residentOK   bool
	baselineHash uint64
	// lastHash is the region hash observed by the last rebind. On a
	// multi-region device every manager's rebind runs after every
	// configuration sequence; an unchanged hash over an authoritative
	// state means the stream belonged to a sibling region, so this
	// region's binding and counters are left untouched. While the state
	// is authoritative it is also the verified content a scrub compares
	// against.
	lastHash uint64
	// hasher keeps the region's frame hashes: a rebind rehashes only the
	// frames written or flipped since the hasher's last look, a scrub
	// reads them all.
	hasher *fabric.RegionHasher

	stats     Counters
	corrupted bool

	// spans are the region's frame-index intervals — the injectable
	// surface of the fault campaign, and the frames whose row band the
	// scrub's region hash covers. bandLo/bandHi bound the region's
	// row-band words inside those frames: faults are confined to the band
	// because a flip outside it (static content sharing the region's
	// full-height frames) would read as static-design corruption, which
	// is sticky by design.
	spans          []fabric.Span
	bandLo, bandHi int

	// notify, when set, observes hazard-gate refusals and resident-state
	// demotions ("hazard"/"demote" plus a short reason). The trace spine
	// hooks in here, so core never depends on the tracer package.
	notify func(event, reason string)
}

// ErrAborted reports that an abortable load was stopped at a safe stream
// boundary before the configuration sequence completed. The region content
// is then partial, so the tracked resident state is demoted to
// non-authoritative and the next load must plan a complete stream.
var ErrAborted = errors.New("core: load aborted at stream boundary")

// NewManager returns a manager for the configured dynamic area.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Device == nil || cfg.ConfigMem == nil || cfg.Memo == nil ||
		cfg.Loader == nil || cfg.CPU == nil ||
		cfg.ICAP == nil || cfg.Bind == nil || cfg.Kernel == nil {
		return nil, fmt.Errorf("core: incomplete manager configuration")
	}
	if !cfg.ConfigMem.Guarded() {
		return nil, fmt.Errorf("core: configuration memory has no static-design guard")
	}
	m := &Manager{
		cfg:          cfg,
		modules:      make(map[string]*entry),
		byHash:       make(map[uint64]*entry),
		baselineHash: cfg.Memo.baseline.RegionHash(cfg.Region),
		hasher:       cfg.ConfigMem.Hasher(cfg.Region),
		residentOK:   true, // the initial full configuration leaves the region blank
	}
	m.lastHash = m.baselineHash
	m.spans = cfg.Device.Frames(cfg.Region)
	m.bandLo, m.bandHi = cfg.Device.RowWordRange(cfg.Region.Row0, cfg.Region.H)
	cfg.Loader.OnDone(m.rebind)
	return m, nil
}

// SetNotify installs the observability hook: it is called, under the same
// serialization as the load path itself, with ("hazard", reason) when the
// §2.2 gate refuses a stale plan and ("demote", reason) whenever the
// tracked resident state loses authority. nil disables it.
func (m *Manager) SetNotify(fn func(event, reason string)) { m.notify = fn }

// event reports one observability event to the installed notify hook.
func (m *Manager) event(kind, reason string) {
	if m.notify != nil {
		m.notify(kind, reason)
	}
}

// demote marks the tracked resident state non-authoritative and reports
// the demotion with its reason.
func (m *Manager) demote(reason string) {
	m.residentOK = false
	m.event("demote", reason)
}

// Register adds a module assembled by NewModule with the assembler of this
// manager's memo; the manager reads it and never writes it, so boards of
// one shape register the same Module. Its region hash is indexed for
// post-configuration binding. A second module of the same name is
// refused, and so is a module whose region hash equals another module's
// or the blank baseline's: rebind could not tell the two configurations
// apart.
func (m *Manager) Register(mod *Module) error {
	name := mod.Name()
	if mod.asm != m.cfg.Memo.asm {
		return fmt.Errorf("core: module %s was not assembled by region %s's assembler", name, m.cfg.Region.Name)
	}
	if _, dup := m.modules[name]; dup {
		return fmt.Errorf("core: module %s already registered", name)
	}
	h := mod.complete.RegionHash
	if other, dup := m.byHash[h]; dup {
		return fmt.Errorf("core: module %s has the region hash of module %s", name, other.mod.Name())
	}
	if h == m.baselineHash {
		return fmt.Errorf("core: module %s has the region hash of the blank region", name)
	}
	e := &entry{mod: mod}
	m.modules[name] = e
	m.byHash[h] = e
	return nil
}

// Module returns the registered module of that name, nil if none is.
func (m *Manager) Module(name string) *Module {
	if e, ok := m.modules[name]; ok {
		return e.mod
	}
	return nil
}

// Modules lists the registered module names, sorted.
func (m *Manager) Modules() []string {
	names := make([]string, 0, len(m.modules))
	for n := range m.modules {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Current returns the name of the loaded module ("" when none or unknown).
func (m *Manager) Current() string { return m.current }

// ResidentState returns the tracked resident module and whether that
// tracking is authoritative — i.e. the region's post-configuration hash
// matched the module (or the blank baseline) and the static design is
// intact. Differential streams may only be planned against an
// authoritative state.
func (m *Manager) ResidentState() (string, bool) {
	return m.current, m.residentOK && !m.corrupted
}

// Has reports whether a module of that name is registered (a module that
// does not fit the dynamic area is never registered).
func (m *Manager) Has(name string) bool {
	_, ok := m.modules[name]
	return ok
}

// Corrupted reports whether a reconfiguration has damaged the static design
// (never happens with BitLinker-assembled streams; the naive/differential
// experiment paths can trigger it).
func (m *Manager) Corrupted() bool { return m.corrupted }

// Counters returns the manager's statistics so far, with the shape
// region's DiffAssemblies.
func (m *Manager) Counters() Counters {
	c := m.stats
	c.DiffAssemblies = m.cfg.Memo.Assemblies()
	return c
}

// CompleteSize implements plan.Source: byte and frame count of the cached
// complete configuration.
func (m *Manager) CompleteSize(name string) (int, int, error) {
	e, ok := m.modules[name]
	if !ok {
		return 0, 0, fmt.Errorf("core: unknown module %s", name)
	}
	return e.mod.complete.Stream.SizeBytes(), e.mod.complete.Frames, nil
}

// DifferentialSize implements plan.Source: byte and frame count of the
// (from → to) differential stream. The assembled result is the memo's, so
// planning shares it with the load path and with every board of the shape.
func (m *Manager) DifferentialSize(from, to string) (int, int, error) {
	res, err := m.differential(from, to)
	if err != nil {
		return 0, 0, err
	}
	return res.Stream.SizeBytes(), res.Frames, nil
}

// CompressedSize implements plan.Source: wire bytes, decoded bytes and
// frame count of the compressed container for the (from → to) transition,
// the memo's like the differential it encodes.
func (m *Manager) CompressedSize(from, to string) (int, int, int, error) {
	z, err := m.compressedDiff(from, to)
	if err != nil {
		return 0, 0, 0, err
	}
	return z.SizeBytes(), z.RawBytes(), z.Frames, nil
}

// CompleteCompressedSize implements plan.Source: sizes of the RLE-only
// container encoding the module's complete stream. No configuration-memory
// references, so it is as state-independent as the complete stream.
func (m *Manager) CompleteCompressedSize(name string) (int, int, int, error) {
	z, err := m.compressedFull(name)
	if err != nil {
		return 0, 0, 0, err
	}
	return z.SizeBytes(), z.RawBytes(), z.Frames, nil
}

// transition resolves a (from → to) pair of registered module names to
// the memo's key: from "" is the blank region.
func (m *Manager) transition(from, to string) (*Module, *Module, error) {
	te, ok := m.modules[to]
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown module %s", to)
	}
	if from == "" {
		return nil, te.mod, nil
	}
	fe, ok := m.modules[from]
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown assumed module %s", from)
	}
	return fe.mod, te.mod, nil
}

// differential returns the memo's differential configuration for the
// transition.
func (m *Manager) differential(from, to string) (*bitlinker.Result, error) {
	fm, tm, err := m.transition(from, to)
	if err != nil {
		return nil, err
	}
	return m.cfg.Memo.Differential(fm, tm)
}

// compressedDiff returns the memo's compressed container for the
// transition.
func (m *Manager) compressedDiff(from, to string) (*bitstream.Compressed, error) {
	fm, tm, err := m.transition(from, to)
	if err != nil {
		return nil, err
	}
	return m.cfg.Memo.Compressed(fm, tm)
}

// compressedFull returns the memo's RLE-only container for the module's
// complete stream.
func (m *Manager) compressedFull(name string) (*bitstream.Compressed, error) {
	e, ok := m.modules[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown module %s", name)
	}
	return m.cfg.Memo.CompleteCompressed(e.mod)
}

// LoadDifferential loads the memo's differential configuration for the
// named module, valid only if the region currently holds assumed's
// configuration. This is the smaller/faster stream of §2.2 — and the hazard
// demonstration when assumed does not match reality. Production code goes
// through LoadPlanned, which verifies the assumption before streaming.
func (m *Manager) LoadDifferential(name, assumed string) (sim.Time, error) {
	res, err := m.differential(assumed, name)
	if err != nil {
		return 0, err
	}
	t, _, err := m.stream(res.Stream.Words, plan.StreamDifferential, nil)
	return t, err
}

// LoadPlanned executes a plan produced by plan.Planner through CPU stores.
// The safety gate of §2.2 (see resolve) refuses a stale plan without
// touching the ICAP, and the caller must re-plan against the current
// state.
func (m *Manager) LoadPlanned(p plan.Plan) (sim.Time, error) {
	t, _, err := m.LoadPlannedAbortable(p, nil)
	return t, err
}

// LoadPlannedAbortable executes a plan like LoadPlanned, but polls stop at
// safe stream boundaries (every abortCheckWords words) — the cancellable
// load a speculative prefetcher issues, so a real request never waits for
// a full speculative stream. On abort the configuration logic is reset,
// the words streamed so far are accounted, the tracked resident state is
// demoted to non-authoritative (partial region content), and ErrAborted is
// returned. bytes reports the words actually streamed, complete or not.
func (m *Manager) LoadPlannedAbortable(p plan.Plan, stop func() bool) (elapsed sim.Time, bytes int, err error) {
	if stop != nil && stop() {
		return 0, 0, ErrAborted
	}
	words, kind, err := m.resolve(p)
	if err != nil || kind == plan.StreamNone {
		return 0, 0, err
	}
	return m.stream(words, kind, stop)
}

// resolve applies the §2.2 gate to a plan and returns the words to stream
// and the stream kind to book them under (no words and StreamNone for a
// verified no-op). A no-op, differential or differential-based compressed
// plan whose assumed state no longer matches the authoritative resident
// state is refused before any configuration port is touched; complete
// streams, plain or compressed, carry no configuration-memory references
// and need no gate. Both transports, CPU stores and dock DMA, resolve
// their plans here, so every refusal is decided and reported in one place.
func (m *Manager) resolve(p plan.Plan) ([]uint32, plan.StreamKind, error) {
	e, ok := m.modules[p.Module]
	if !ok {
		return nil, 0, fmt.Errorf("core: unknown module %s", p.Module)
	}
	resident, authoritative := m.ResidentState()
	stale := func(reason, what string) error {
		m.event("hazard", reason)
		return fmt.Errorf("core: stale plan: %s but resident state is %q (authoritative=%v)",
			what, resident, authoritative)
	}
	fromOK := authoritative && resident == p.From
	switch p.Kind {
	case plan.StreamNone:
		if !authoritative || resident != p.Module {
			return nil, 0, stale("stale-noop", "no-op for "+p.Module)
		}
		return nil, plan.StreamNone, nil
	case plan.StreamComplete:
		return e.mod.complete.Stream.Words, plan.StreamComplete, nil
	case plan.StreamDifferential:
		if !fromOK {
			return nil, 0, stale("stale-differential", fmt.Sprintf("differential %q -> %s", p.From, p.Module))
		}
		res, err := m.differential(p.From, p.Module)
		if err != nil {
			return nil, 0, err
		}
		return res.Stream.Words, plan.StreamDifferential, nil
	case plan.StreamCompressed:
		// A container is gated like the stream it encodes.
		var z *bitstream.Compressed
		var err error
		switch p.Base {
		case plan.StreamDifferential:
			if !fromOK {
				return nil, 0, stale("stale-compressed", fmt.Sprintf("compressed differential %q -> %s", p.From, p.Module))
			}
			z, err = m.compressedDiff(p.From, p.Module)
		case plan.StreamComplete:
			z, err = m.compressedFull(p.Module)
		default:
			return nil, 0, fmt.Errorf("core: compressed plan with base %v", p.Base)
		}
		if err != nil {
			return nil, 0, err
		}
		return z.Words, plan.StreamCompressed, nil
	}
	return nil, 0, fmt.Errorf("core: unknown stream kind %v", p.Kind)
}

// PendingLoad is one in-flight DMA load. The stream content is already
// applied (the configuration sequence is atomic at Begin); what is pending
// is the settlement of the engine's port window against the member's
// timeline, done by FinishLoad when the requester needs the result.
type PendingLoad struct {
	Plan        plan.Plan
	start, done sim.Time
	bytes       int
	none        bool
}

// Bytes reports the wire bytes the transfer moved.
func (pl *PendingLoad) Bytes() int { return pl.bytes }

// BeginPlanned starts a plan's stream on a dock DMA engine, behind the same
// §2.2 gate as LoadPlanned (see resolve). The returned PendingLoad's port
// window overlaps sibling engines' windows and CPU work; call FinishLoad
// before using the loaded module. A configuration error is returned
// immediately (the engine resets the loader) and demotes the resident
// state, exactly like a CPU-path failure.
func (m *Manager) BeginPlanned(p plan.Plan, eng *icap.DMA) (*PendingLoad, error) {
	words, kind, err := m.resolve(p)
	if err != nil {
		return nil, err
	}
	if kind == plan.StreamNone {
		return &PendingLoad{Plan: p, none: true}, nil
	}
	start, done, err := eng.Begin(words, kind == plan.StreamCompressed)
	m.book(kind, 4*len(words), done-start)
	m.stats.DMALoads++
	if err != nil {
		m.demote("dma-error")
		return nil, fmt.Errorf("core: dma load of %s: %w", p.Module, err)
	}
	return &PendingLoad{Plan: p, start: start, done: done, bytes: 4 * len(words)}, nil
}

// FinishLoad settles a pending DMA load against the member's timeline: it
// advances simulated time to the end of the engine's port window and
// reports the split between visible configuration time (what the requester
// actually waited) and hidden time (the part of the window that overlapped
// dispatch, work or sibling loads).
func (m *Manager) FinishLoad(pl *PendingLoad) (visible, hidden sim.Time) {
	if pl == nil || pl.none {
		return 0, 0
	}
	now := m.cfg.Kernel.Now()
	if pl.done > now {
		visible = pl.done - now
		m.cfg.Kernel.AdvanceTo(pl.done)
	}
	hidden = (pl.done - pl.start) - visible
	if hidden < 0 {
		hidden = 0
	}
	return visible, hidden
}

// LoadNaive streams a naively assembled configuration (zeros outside the
// region band) — the §2.2 hazard that corrupts the static design.
func (m *Manager) LoadNaive(name string) (sim.Time, error) {
	e, ok := m.modules[name]
	if !ok {
		return 0, fmt.Errorf("core: unknown module %s", name)
	}
	res, err := m.cfg.Memo.asm.AssembleNaive(e.mod.placed)
	if err != nil {
		return 0, err
	}
	t, _, err := m.stream(res.Stream.Words, plan.StreamComplete, nil)
	return t, err
}

// abortCheckWords is how often an abortable stream polls its stop
// function: every 256 words (1 KiB) — a handful of frames — so a real
// request preempts a speculative stream within microseconds of real time.
const abortCheckWords = 256

// stream drives the words through the HWICAP with CPU stores (see push),
// checks the completion status and books the load under kind. A
// compressed container is pushed with the decoder front-end armed: wire
// bytes are what software streamed and what the byte counters book, while
// the port time is bound by the decoded words, which the armed HWICAP
// charges per expansion.
//
// A non-nil stop is polled at chunk boundaries. An aborted stream resets
// the configuration logic (so the next load finds the packet state machine
// at power-up, as a real HWICAP abort does, and the decoder disarmed),
// counts the words it actually pushed, and leaves the resident state
// non-authoritative: some frames may have been committed without a rebind.
// The §2.2 hazard gate then refuses any differential against this region
// until a complete load restores a verified state, so an abort can waste
// stream bytes but can never corrupt an execution.
func (m *Manager) stream(words []uint32, kind plan.StreamKind, stop func() bool) (sim.Time, int, error) {
	compressed := kind == plan.StreamCompressed
	c := m.cfg.CPU
	start := m.cfg.Kernel.Now()
	if compressed {
		m.cfg.ICAP.ArmDecoder()
	}
	if n := m.push(words, stop); n < len(words) {
		c.SW(m.cfg.ICAPBase+icap.RegControl, icap.CtrlReset)
		c.Sync()
		elapsed := m.cfg.Kernel.Now() - start
		m.book(plan.StreamNone, 4*n, elapsed)
		m.demote("abort")
		return elapsed, 4 * n, ErrAborted
	}
	c.Sync()
	// Poll the status register until the engine reports done or error.
	var status uint32
	err := c.Spin(32, func() bool {
		status = c.LW(m.cfg.ICAPBase + icap.RegStatus)
		return status&(icap.StatDone|icap.StatError) != 0 && status&icap.StatBusy == 0
	})
	if compressed {
		if derr := m.cfg.ICAP.DisarmDecoder(); err == nil && derr != nil {
			err = fmt.Errorf("core: compressed stream: %w", derr)
		}
	}
	elapsed := m.cfg.Kernel.Now() - start
	bytes := 4 * len(words)
	m.book(kind, bytes, elapsed)
	if err != nil {
		// The sequence never completed: frames may have been committed
		// without a rebind, so the tracked state is no longer trustworthy.
		m.demote("stream-error")
		return elapsed, bytes, err
	}
	if status&icap.StatError != 0 {
		m.demote("config-error")
		return elapsed, bytes, fmt.Errorf("core: configuration error reported by HWICAP")
	}
	return elapsed, bytes, nil
}

// push stores the words into the HWICAP write FIFO in one
// cpu.StoreStream, polling a non-nil stop before every abortCheckWords-th
// word after the first. It returns how many words it pushed: fewer than
// len(words) when stop tripped.
func (m *Manager) push(words []uint32, stop func() bool) int {
	return m.cfg.CPU.StoreStream(m.cfg.ICAPBase+icap.RegWriteFIFO, words, stop, abortCheckWords)
}

// book counts one load that occupied a configuration port for elapsed and
// moved bytes, under its stream kind; StreamNone books an aborted stream.
func (m *Manager) book(kind plan.StreamKind, bytes int, elapsed sim.Time) {
	m.stats.Loads++
	m.stats.LoadTime += elapsed
	m.stats.StreamedBytes += uint64(bytes)
	switch kind {
	case plan.StreamDifferential:
		m.stats.DiffLoads++
	case plan.StreamComplete:
		m.stats.CompleteLoads++
	case plan.StreamCompressed:
		m.stats.CompressedLoads++
	case plan.StreamNone:
		m.stats.AbortedLoads++
	}
}

// rebind runs after every completed configuration sequence: it hashes the
// region, binds the matching behavioural core (or a BrokenCore), and checks
// the static design for disturbance. On a multi-region device the loader
// fires every region's rebind; a sibling's stream leaves this region's
// hash unchanged and is skipped, so only the affected region re-binds —
// and an aborted stream (which never fires rebind) demotes only its own
// region's resident state. The hasher rehashes only the span frames the
// stream wrote: none for a sibling's stream.
func (m *Manager) rebind() {
	h := m.hasher.Hash()
	if h == m.lastHash && m.residentOK && !m.corrupted {
		// Sibling-region stream (or a band-identical overwrite): keep this
		// region's binding, but never skip the static-design check — a
		// naively assembled stream can zero static rows while reproducing
		// the resident band content exactly.
		if m.cfg.ConfigMem.Disturbed() {
			m.corrupted = true
		}
		return
	}
	m.lastHash = h
	if e, ok := m.byHash[h]; ok {
		e.loads++
		m.current = e.mod.Name()
		m.residentOK = true
		core := e.mod.factory()
		core.Reset()
		m.cfg.Bind(core)
	} else if h == m.baselineHash {
		// The region went back to the blank baseline: tracked and known.
		m.current = ""
		m.residentOK = true
		m.cfg.Bind(hw.NewBrokenCore(h))
	} else {
		// Unrecognized content (e.g. a differential stream applied against
		// the wrong state): the resident state is no longer authoritative.
		m.current = ""
		m.demote("unverified")
		m.cfg.Bind(hw.NewBrokenCore(h))
	}
	if m.cfg.ConfigMem.Disturbed() {
		m.corrupted = true
	}
}

// Scrub runs one readback pass over the region: it reads every band word
// on every pass, four frames at a time, whatever the frame stamps say, and
// compares the region hash with lastHash, the hash the last rebind
// verified. Each FNV-1a step folds one whole word, or one frame hash, and
// is a bijection of the hash state, so every single-word change, and so
// every single-bit upset, changes the hash, and unlike a linear CRC it has
// no structured blind pairs of flips. A mismatch means the resident
// configuration took a soft error: the tracked resident state is demoted
// to non-authoritative (detected=true, module names what was lost — ""
// for a blank region), and the §2.2 hazard gate forces the region's next
// load onto a complete stream, which overwrites every span frame and
// thereby heals the flip. A region whose state is already
// non-authoritative (aborted speculative stream, earlier detection) is not
// re-scrubbed: it has no verified content to compare against, and a
// second demotion would double-count the same loss.
func (m *Manager) Scrub() (detected bool, module string) {
	m.stats.ScrubPasses++
	if !m.residentOK || m.corrupted {
		return false, ""
	}
	if m.hasher.Read() == m.lastHash {
		return false, ""
	}
	m.stats.ScrubFaults++
	module = m.current
	m.demote("scrub")
	return true, module
}

// FaultSpace reports the injectable coordinate space of the region: the
// number of span frames and the number of row-band words per frame. A
// fault campaign draws (frame, word, bit) coordinates inside this space.
func (m *Manager) FaultSpace() (frames, words int) {
	for _, sp := range m.spans {
		frames += sp.Len()
	}
	return frames, m.bandHi - m.bandLo
}

// InjectFault flips one configuration bit of the region: frame indexes the
// span frames in span order, word the row-band words of that frame, bit
// the bit within the word. The flip lands directly in configuration
// memory — an SEU, not a stream — so nothing rebinds and no counter but
// the injection count moves until a scrub (or the next rebind's hash
// mismatch) notices. Coordinates outside the region's band are rejected:
// the band boundary is what separates a region fault (recoverable by a
// complete reload) from static-design damage (sticky corruption).
func (m *Manager) InjectFault(frame, word int, bit uint) error {
	fi := -1
	rest := frame
	for _, sp := range m.spans {
		if rest < sp.Len() {
			fi = sp.Lo + rest
			break
		}
		rest -= sp.Len()
	}
	if frame < 0 || fi < 0 {
		return fmt.Errorf("core: fault frame %d outside region %s's spans", frame, m.cfg.Region.Name)
	}
	if word < 0 || m.bandLo+word >= m.bandHi {
		return fmt.Errorf("core: fault word %d outside region %s's row band", word, m.cfg.Region.Name)
	}
	far, err := m.cfg.Device.FARAt(fi)
	if err != nil {
		return err
	}
	if err := m.cfg.ConfigMem.FlipBit(far, m.bandLo+word, bit); err != nil {
		return err
	}
	m.stats.FaultsInjected++
	return nil
}
