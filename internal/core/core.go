// Package core implements the run-time reconfiguration manager — the
// paper's methodology as a library. It owns one dynamic area: it keeps the
// store of relocatable components, assembles complete partial configurations
// with the BitLinker flow (cached per module), streams them through the
// HWICAP under CPU control, verifies that the static design was not
// disturbed, and binds the dynamic region's behavioural core to the dock
// after every reconfiguration by hashing the configuration contents.
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
	"repro/internal/region"
	"repro/internal/sim"
)

// Config wires a Manager into a platform.
type Config struct {
	Device *fabric.Device
	Region fabric.Region
	// AllRegions lists every dynamic region of the device's floorplan,
	// including Region itself. The static design is everything outside ALL
	// of them: a sibling region's reconfiguration must not read as static
	// corruption here. Empty means Region is the device's only dynamic
	// area (the paper's fixed floorplan).
	AllRegions []fabric.Region
	ConfigMem  *fabric.ConfigMemory
	// Baseline is the configuration image right after the initial full
	// configuration (static design present, region blank).
	Baseline *fabric.ConfigMemory
	// Assembler is the BitLinker instance for the region.
	Assembler *bitlinker.Assembler
	// Loader is the device's configuration logic (shared with the HWICAP).
	Loader *bitstream.Loader
	// CPU drives the HWICAP; ICAPBase is its bus address.
	CPU      *cpu.CPU
	ICAPBase uint32
	// ICAP is the HWICAP slave itself. The CPU path reaches it through the
	// bus at ICAPBase; the direct reference is needed to arm the
	// compressed-stream decoder front-end. nil disables compressed loads.
	ICAP *icap.HWICAP
	// Bind attaches a behavioural core to the dock.
	Bind func(hw.Core)
	// Kernel provides timing for configuration statistics.
	Kernel *sim.Kernel
	// StaticHashes, when set, is the device's shared static-hash
	// memoizer: on a multi-region floorplan every manager's rebind runs
	// after every configuration sequence, and without sharing each would
	// recompute the identical O(device) hash. nil means the manager
	// hashes directly (single-manager setups and tests).
	StaticHashes *StaticHasher
}

// StaticHasher memoizes the static hash of one device's configuration
// memory per completed configuration sequence, shared by every manager of
// the device. Not safe for concurrent use on its own: callers serialize on
// the system lock, like all simulated activity.
type StaticHasher struct {
	loader  *bitstream.Loader
	cm      *fabric.ConfigMemory
	regions []fabric.Region
	valid   bool
	configs uint64
	hash    uint64
}

// NewStaticHasher returns a memoizer over the configuration memory,
// excluding the given dynamic regions (the device's whole floorplan).
func NewStaticHasher(loader *bitstream.Loader, cm *fabric.ConfigMemory, regions []fabric.Region) *StaticHasher {
	return &StaticHasher{loader: loader, cm: cm, regions: regions}
}

// Hash returns the static hash as of the loader's current completed
// configuration count, computing it at most once per sequence.
func (h *StaticHasher) Hash() uint64 {
	_, configs, _ := h.loader.Stats()
	if !h.valid || configs != h.configs {
		h.hash = h.cm.StaticHash(h.regions...)
		h.configs = configs
		h.valid = true
	}
	return h.hash
}

// entry is one registered module.
type entry struct {
	comp    *bitlinker.Component
	factory func() hw.Core
	// assembled holds the cached complete configuration.
	assembled *bitlinker.Result
	// target is the post-load configuration image (for differential
	// assembly experiments).
	target *fabric.ConfigMemory
	loads  uint64
}

// diffKey identifies one (assumed → wanted) differential transition.
type diffKey struct{ from, to string }

// Manager is the run-time reconfiguration manager of one dynamic area.
type Manager struct {
	cfg        Config
	modules    map[string]*entry
	byHash     map[uint64]*entry
	current    string
	staticHash uint64

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
	// region's binding and counters are left untouched.
	lastHash uint64

	// diffs caches assembled differential configurations per transition,
	// so planning and repeated loads never re-run AssembleDifferential.
	diffs          map[diffKey]*bitlinker.Result
	diffAssemblies uint64
	// zdiffs and zfulls cache compressed containers: per transition for
	// differential-based ones, per module for complete-based (RLE-only)
	// ones. The encoder reuses the memoized differential's stream, so a
	// compressed size query costs one encode per pair, ever.
	zdiffs map[diffKey]*bitstream.Compressed
	zfulls map[string]*bitstream.Compressed

	loadCount       uint64
	loadTime        sim.Time
	bytesStreamed   uint64
	diffLoads       uint64
	completeLoads   uint64
	compressedLoads uint64
	dmaLoads        uint64
	abortedLoads    uint64
	corrupted       bool

	// spans are the region's frame-index intervals — the readback window
	// of the scrub pass and the injectable surface of the fault campaign.
	// bandLo/bandHi bound the region's row-band words inside those frames:
	// faults are confined to the band because a flip outside it (static
	// content sharing the region's full-height frames) would read as
	// static-design corruption, which is sticky by design.
	spans          []region.Span
	bandLo, bandHi int
	// goldenCRC is the readback CRC over the span frames as of the last
	// verified configuration; valid exactly while residentOK holds.
	goldenCRC      uint16
	scrubPasses    uint64
	scrubFaults    uint64
	faultsInjected uint64

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
	if cfg.Device == nil || cfg.ConfigMem == nil || cfg.Baseline == nil ||
		cfg.Assembler == nil || cfg.Loader == nil || cfg.CPU == nil ||
		cfg.Bind == nil || cfg.Kernel == nil {
		return nil, fmt.Errorf("core: incomplete manager configuration")
	}
	if len(cfg.AllRegions) == 0 {
		cfg.AllRegions = []fabric.Region{cfg.Region}
	}
	m := &Manager{
		cfg:          cfg,
		modules:      make(map[string]*entry),
		byHash:       make(map[uint64]*entry),
		staticHash:   cfg.Baseline.StaticHash(cfg.AllRegions...),
		baselineHash: cfg.Baseline.RegionHash(cfg.Region),
		diffs:        make(map[diffKey]*bitlinker.Result),
		zdiffs:       make(map[diffKey]*bitstream.Compressed),
		zfulls:       make(map[string]*bitstream.Compressed),
		residentOK:   true, // the initial full configuration leaves the region blank
	}
	m.lastHash = m.baselineHash
	m.spans = region.Spans(cfg.Device, cfg.Region)
	m.bandLo, m.bandHi = cfg.Device.RowWordRange(cfg.Region.Row0, cfg.Region.H)
	m.goldenCRC = m.readbackCRC()
	cfg.Loader.OnDone(m.rebind)
	return m, nil
}

// Region returns the dynamic area this manager owns.
func (m *Manager) Region() fabric.Region { return m.cfg.Region }

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

// Register adds a module: its relocatable component and behavioural factory.
// The complete partial configuration is assembled once and cached; its
// region hash is indexed for post-configuration binding.
func (m *Manager) Register(comp *bitlinker.Component, factory func() hw.Core) error {
	if _, dup := m.modules[comp.Name]; dup {
		return fmt.Errorf("core: module %s already registered", comp.Name)
	}
	placed := bitlinker.Placed{C: comp, ColOff: m.cfg.Region.W - comp.W}
	res, err := m.cfg.Assembler.Assemble(placed)
	if err != nil {
		return fmt.Errorf("core: assembling %s: %w", comp.Name, err)
	}
	target := m.cfg.Assembler.Target(placed)
	e := &entry{comp: comp, factory: factory, assembled: res, target: target}
	m.modules[comp.Name] = e
	m.byHash[res.RegionHash] = e
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

// Stats reports load count, cumulative configuration time and streamed
// bytes.
func (m *Manager) Stats() (loads uint64, total sim.Time, bytes uint64) {
	return m.loadCount, m.loadTime, m.bytesStreamed
}

// LoadKinds reports how many loads streamed a complete configuration and
// how many streamed a differential one.
func (m *Manager) LoadKinds() (complete, differential uint64) {
	return m.completeLoads, m.diffLoads
}

// CompressedLoads reports how many loads streamed a compressed container.
func (m *Manager) CompressedLoads() uint64 { return m.compressedLoads }

// DMALoads reports how many loads went through a dock DMA engine instead of
// CPU stores.
func (m *Manager) DMALoads() uint64 { return m.dmaLoads }

// AbortedLoads reports how many loads were stopped at a stream boundary
// before completing (speculative streams preempted by a real request).
func (m *Manager) AbortedLoads() uint64 { return m.abortedLoads }

// DiffAssemblies reports how often AssembleDifferential actually ran —
// repeated loads of a memoized transition do not grow this counter.
func (m *Manager) DiffAssemblies() uint64 { return m.diffAssemblies }

// StreamSize returns the size in bytes of a module's cached complete
// configuration.
func (m *Manager) StreamSize(name string) (int, error) {
	e, ok := m.modules[name]
	if !ok {
		return 0, fmt.Errorf("core: unknown module %s", name)
	}
	return e.assembled.Stream.SizeBytes(), nil
}

// CompleteSize implements plan.Source: byte and frame count of the cached
// complete configuration.
func (m *Manager) CompleteSize(name string) (int, int, error) {
	e, ok := m.modules[name]
	if !ok {
		return 0, 0, fmt.Errorf("core: unknown module %s", name)
	}
	return e.assembled.Stream.SizeBytes(), e.assembled.Frames, nil
}

// DifferentialSize implements plan.Source: byte and frame count of the
// (from → to) differential stream. The assembled result is memoized, so
// planning shares the cache with the load path.
func (m *Manager) DifferentialSize(from, to string) (int, int, error) {
	res, err := m.differential(from, to)
	if err != nil {
		return 0, 0, err
	}
	return res.Stream.SizeBytes(), res.Frames, nil
}

// CompressedSize implements plan.Source: wire bytes, decoded bytes and
// frame count of the compressed container for the (from → to) transition.
// The container is encoded from the memoized differential and itself
// memoized, so sizing shares the cache with the load path.
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

// compressedDiff returns the cached compressed container for the
// transition, encoding it at most once per (from, to) pair. The encoder
// diffs against the same assumed image the differential was built from, so
// its configuration-memory KEEP references are valid exactly when the
// differential itself is — under the §2.2 residency gate.
func (m *Manager) compressedDiff(from, to string) (*bitstream.Compressed, error) {
	key := diffKey{from: from, to: to}
	if z, ok := m.zdiffs[key]; ok {
		return z, nil
	}
	res, err := m.differential(from, to)
	if err != nil {
		return nil, err
	}
	base, err := m.assumedImage(from)
	if err != nil {
		return nil, err
	}
	z, err := bitstream.Compress(m.cfg.Device, res.Stream, base, res.Frames)
	if err != nil {
		return nil, err
	}
	m.zdiffs[key] = z
	return z, nil
}

// compressedFull returns the cached RLE-only container for the module's
// complete stream.
func (m *Manager) compressedFull(name string) (*bitstream.Compressed, error) {
	if z, ok := m.zfulls[name]; ok {
		return z, nil
	}
	e, ok := m.modules[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown module %s", name)
	}
	z, err := bitstream.Compress(m.cfg.Device, e.assembled.Stream, nil, e.assembled.Frames)
	if err != nil {
		return nil, err
	}
	m.zfulls[name] = z
	return z, nil
}

// assumedImage resolves a from-state name to its configuration image: the
// blank baseline for "", the module's post-load target otherwise.
func (m *Manager) assumedImage(from string) (*fabric.ConfigMemory, error) {
	if from == "" {
		return m.cfg.Baseline, nil
	}
	ae, ok := m.modules[from]
	if !ok {
		return nil, fmt.Errorf("core: unknown assumed module %s", from)
	}
	return ae.target, nil
}

// differential returns the cached differential configuration for the
// transition, assembling it at most once per (from, to) pair.
func (m *Manager) differential(from, to string) (*bitlinker.Result, error) {
	if _, ok := m.modules[to]; !ok {
		return nil, fmt.Errorf("core: unknown module %s", to)
	}
	base, err := m.assumedImage(from)
	if err != nil {
		return nil, err
	}
	key := diffKey{from: from, to: to}
	if res, ok := m.diffs[key]; ok {
		return res, nil
	}
	e := m.modules[to]
	placed := bitlinker.Placed{C: e.comp, ColOff: m.cfg.Region.W - e.comp.W}
	m.diffAssemblies++
	res, err := m.cfg.Assembler.AssembleDifferential(base, placed)
	if err != nil {
		return nil, err
	}
	m.diffs[key] = res
	return res, nil
}

// Load reconfigures the dynamic area with the named module's complete
// configuration, streaming it through the HWICAP under CPU control. It
// returns the configuration time. Loading the already-current module is a
// no-op (the paper's systems likewise keep a configuration until another
// task needs the area).
func (m *Manager) Load(name string) (sim.Time, error) {
	e, ok := m.modules[name]
	if !ok {
		return 0, fmt.Errorf("core: unknown module %s", name)
	}
	// The shortcut requires an authoritative resident state: after an
	// aborted stream m.current may still name the old module while the
	// region content is unknown — then the module must really be loaded.
	if m.current == name && m.residentOK && !m.corrupted {
		return 0, nil
	}
	t, _, err := m.stream(e.assembled.Stream.Words, plan.StreamComplete, nil)
	return t, err
}

// LoadDifferential loads the cached differential configuration for the
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
		return e.assembled.Stream.Words, plan.StreamComplete, nil
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
	m.dmaLoads++
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
	placed := bitlinker.Placed{C: e.comp, ColOff: m.cfg.Region.W - e.comp.W}
	res, err := m.cfg.Assembler.AssembleNaive(placed)
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

// stream drives the words through the HWICAP with CPU stores, checks the
// completion status and books the load under kind. A compressed container
// is pushed with the decoder front-end armed: wire bytes are what software
// streamed and what the byte counters book, while the port time is bound
// by the decoded words, which the armed HWICAP charges per expansion.
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
	if compressed && m.cfg.ICAP == nil {
		return 0, 0, fmt.Errorf("core: compressed load without an HWICAP decoder front-end")
	}
	c := m.cfg.CPU
	start := m.cfg.Kernel.Now()
	if compressed {
		m.cfg.ICAP.ArmDecoder()
	}
	for i, w := range words {
		if stop != nil && i > 0 && i%abortCheckWords == 0 && stop() {
			c.SW(m.cfg.ICAPBase+icap.RegControl, icap.CtrlReset)
			c.Sync()
			elapsed := m.cfg.Kernel.Now() - start
			m.book(plan.StreamNone, 4*i, elapsed)
			m.abortedLoads++
			m.demote("abort")
			return elapsed, 4 * i, ErrAborted
		}
		c.SW(m.cfg.ICAPBase+icap.RegWriteFIFO, w)
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

// book counts one load that occupied a configuration port for elapsed and
// moved bytes, under its stream kind (StreamNone, for an aborted stream,
// counts under no kind).
func (m *Manager) book(kind plan.StreamKind, bytes int, elapsed sim.Time) {
	m.loadCount++
	m.loadTime += elapsed
	m.bytesStreamed += uint64(bytes)
	switch kind {
	case plan.StreamDifferential:
		m.diffLoads++
	case plan.StreamComplete:
		m.completeLoads++
	case plan.StreamCompressed:
		m.compressedLoads++
	}
}

// rebind runs after every completed configuration sequence: it hashes the
// region, binds the matching behavioural core (or a BrokenCore), and checks
// the static design for disturbance. On a multi-region device the loader
// fires every region's rebind; a sibling's stream leaves this region's
// hash unchanged and is skipped, so only the affected region re-binds —
// and an aborted stream (which never fires rebind) demotes only its own
// region's resident state.
func (m *Manager) rebind() {
	h := m.cfg.ConfigMem.RegionHash(m.cfg.Region)
	if h == m.lastHash && m.residentOK && !m.corrupted {
		// Sibling-region stream (or a band-identical overwrite): keep this
		// region's binding, but never skip the static-design check — a
		// naively assembled stream can zero static rows while reproducing
		// the resident band content exactly.
		if m.liveStaticHash() != m.staticHash {
			m.corrupted = true
		}
		return
	}
	m.lastHash = h
	if e, ok := m.byHash[h]; ok {
		e.loads++
		m.current = e.comp.Name
		m.residentOK = true
		m.goldenCRC = m.readbackCRC()
		core := e.factory()
		core.Reset()
		m.cfg.Bind(core)
	} else if h == m.baselineHash {
		// The region went back to the blank baseline: tracked and known.
		m.current = ""
		m.residentOK = true
		m.goldenCRC = m.readbackCRC()
		m.cfg.Bind(hw.NewBrokenCore(h))
	} else {
		// Unrecognized content (e.g. a differential stream applied against
		// the wrong state): the resident state is no longer authoritative.
		m.current = ""
		m.demote("unverified")
		m.cfg.Bind(hw.NewBrokenCore(h))
	}
	if m.liveStaticHash() != m.staticHash {
		m.corrupted = true
	}
}

// readbackCRC folds every frame of the region's spans into one CRC16, the
// way a readback scrub would see them coming out of the configuration
// port. The CRC16 detects every single-bit upset in the window.
func (m *Manager) readbackCRC() uint16 {
	var crc uint16
	for _, sp := range m.spans {
		for fi := sp.Lo; fi < sp.Hi; fi++ {
			far, err := m.cfg.Device.FARAt(fi)
			if err != nil {
				continue // unreachable: spans come from the same device
			}
			f, err := m.cfg.ConfigMem.ReadFrame(far)
			if err != nil {
				continue
			}
			crc = bitstream.FrameCRC(crc, f)
		}
	}
	return crc
}

// Scrub runs one readback-CRC pass over the region's frame spans. A
// mismatch against the golden CRC means the resident configuration took a
// soft error: the tracked resident state is demoted to non-authoritative
// (detected=true, module names what was lost — "" for a blank region),
// and the §2.2 hazard gate forces the region's next load onto a complete
// stream, which overwrites every span frame and thereby heals the flip. A
// region whose state is already non-authoritative (aborted speculative
// stream, earlier detection) is not re-scrubbed: its golden CRC is stale
// by definition and a second demotion would double-count the same loss.
func (m *Manager) Scrub() (detected bool, module string) {
	m.scrubPasses++
	if !m.residentOK || m.corrupted {
		return false, ""
	}
	if m.readbackCRC() == m.goldenCRC {
		return false, ""
	}
	m.scrubFaults++
	module = m.current
	m.demote("scrub")
	return true, module
}

// ScrubStats reports how many scrub passes ran and how many detected
// corruption.
func (m *Manager) ScrubStats() (passes, faults uint64) {
	return m.scrubPasses, m.scrubFaults
}

// FaultsInjected reports how many bit-flips InjectFault applied.
func (m *Manager) FaultsInjected() uint64 { return m.faultsInjected }

// FaultSpace reports the injectable coordinate space of the region: the
// number of span frames and the number of row-band words per frame. A
// fault campaign draws (frame, word, bit) coordinates inside this space.
func (m *Manager) FaultSpace() (frames, words int) {
	for _, sp := range m.spans {
		frames += sp.Frames()
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
		if rest < sp.Frames() {
			fi = sp.Lo + rest
			break
		}
		rest -= sp.Frames()
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
	m.faultsInjected++
	return nil
}

// liveStaticHash is the current static hash, through the shared memoizer
// when the platform provided one.
func (m *Manager) liveStaticHash() uint64 {
	if m.cfg.StaticHashes != nil {
		return m.cfg.StaticHashes.Hash()
	}
	return m.cfg.ConfigMem.StaticHash(m.cfg.AllRegions...)
}
