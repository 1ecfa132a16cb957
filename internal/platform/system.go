package platform

import (
	"fmt"
	"sync"

	"repro/internal/bitlinker"
	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dock"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/hwcore"
	"repro/internal/icap"
	"repro/internal/intc"
	"repro/internal/memctl"
	"repro/internal/plan"
	"repro/internal/region"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/uart"
)

// regionSlot is one dynamic area of the system's floorplan: its own dock
// (at a strided bus address and interrupt line), reconfiguration manager,
// stream planner and planning mode. All slots share the device's single
// configuration port — streams into sibling regions serialize on the
// system lock like every other simulated activity.
type regionSlot struct {
	area     region.Area
	mgr      *core.Manager
	planner  *plan.Planner
	dockBase uint32
	irqLine  int
	dock32   *dock.OPBDock
	dock64   *dock.PLBDock
	// dma is this region dock's configuration DMA engine. Engines share the
	// device's single configuration logic, but each keeps its own port
	// window, so sibling regions' transfers overlap in simulated time.
	dma      *icap.DMA
	planning bool
	skipped  []string
}

func (rs *regionSlot) bind(c hw.Core) {
	if rs.dock64 != nil {
		rs.dock64.SetCore(c)
		return
	}
	rs.dock32.SetCore(c)
}

func (rs *regionSlot) core() hw.Core {
	if rs.dock64 != nil {
		return rs.dock64.Core()
	}
	return rs.dock32.Core()
}

// System is one fully assembled platform.
type System struct {
	Name string
	Is64 bool

	K      *sim.Kernel
	CPUClk *sim.Clock
	BusClk *sim.Clock
	CPU    *cpu.CPU

	PLB    *bus.Bus
	OPB    *bus.Bus
	Bridge *bus.Bridge

	BRAM   *memctl.Memory
	ExtMem *memctl.Memory // SRAM (Sys32) or DDR (Sys64)

	UART *uart.UART
	GPIO *GPIO
	INTC *intc.Controller // nil on Sys32

	Dock32 *dock.OPBDock // region 0's dock; nil on Sys64
	Dock64 *dock.PLBDock // region 0's dock; nil on Sys32

	Dev  *fabric.Device
	CM   *fabric.ConfigMemory
	ICAP *icap.HWICAP

	// Floorplan is the device's set of dynamic areas. Region, Mgr and
	// Planner alias region 0 — the paper's fixed dynamic area, and the
	// whole fabric of a single-region system.
	Floorplan region.Floorplan
	Region    fabric.Region
	Mgr       *core.Manager
	Planner   *plan.Planner

	regions []*regionSlot
	// active is the region index task code drives through DockBase/
	// DockData/DockIRQ/Core; ExecuteOn sets it under the system lock.
	active int

	// Skipped lists modules that do not fit region 0 (SHA-1 on the 32-bit
	// system). Per-region fit lives on the slots (SupportsOn).
	Skipped []string

	Timing Timing

	// mu serializes simulated activity. A System models one board: its
	// kernel, CPU and manager are single-threaded, so concurrent users
	// (the scheduler's pool workers) must go through ExecuteOn/ResidentOn,
	// which take this lock. Two regions of one board never compute
	// simultaneously — sibling activity interleaves on this lock.
	mu sync.Mutex

	// tracer, when set by SetTracer, receives plan decisions, hazard
	// verdicts, demotions and DMA port windows from this board's regions,
	// stamped with the member's simulated kernel time; traceMember is the
	// pool member ID the events carry.
	tracer      *trace.Tracer
	traceMember int32
}

// GPIO is the general-purpose I/O controller of the 32-bit system (LEDs and
// push buttons, §3.1).
type GPIO struct {
	LEDs    uint32
	Buttons uint32
}

// Name implements bus.Slave.
func (g *GPIO) Name() string { return "opb-gpio" }

// Read implements bus.Slave.
func (g *GPIO) Read(addr uint32, size int) (uint64, int) {
	if addr == 4 {
		return uint64(g.Buttons), 1
	}
	return uint64(g.LEDs), 1
}

// Write implements bus.Slave.
func (g *GPIO) Write(addr uint32, val uint64, size int) int {
	if addr == 0 {
		g.LEDs = uint32(val)
	}
	return 1
}

// NewSys32 assembles the 32-bit system of §3: XC2VP7, CPU at 200 MHz, PLB
// and OPB at 50 MHz, external SRAM and the dynamic region's OPB Dock behind
// the PLB→OPB bridge.
func NewSys32() (*System, error) {
	return build("sys32", false, Sys32Timing(), region.Single32())
}

// NewSys64 assembles the 64-bit system of §4: XC2VP30, CPU at 300 MHz,
// buses at 100 MHz, DDR and the PLB Dock (with DMA, output FIFO and
// interrupt generator) directly on the 64-bit PLB.
func NewSys64() (*System, error) {
	return build("sys64", true, Sys64Timing(), region.Single64())
}

// NewSys32N assembles the 32-bit system with its dynamic area split into n
// independently reconfigurable regions (n = 1 is exactly NewSys32).
func NewSys32N(n int) (*System, error) {
	fp, err := region.Default(false, n)
	if err != nil {
		return nil, err
	}
	return build(sysName("sys32", n), false, Sys32Timing(), fp)
}

// NewSys64N assembles the 64-bit system with its dynamic area split into n
// independently reconfigurable regions (n = 1 is exactly NewSys64).
func NewSys64N(n int) (*System, error) {
	fp, err := region.Default(true, n)
	if err != nil {
		return nil, err
	}
	return build(sysName("sys64", n), true, Sys64Timing(), fp)
}

// NewSystem assembles a system over an explicit floorplan — the escape
// hatch benchmark pools use to compare region granularities at equal total
// fabric.
func NewSystem(is64 bool, fp region.Floorplan) (*System, error) {
	name, tm := "sys32", Sys32Timing()
	if is64 {
		name, tm = "sys64", Sys64Timing()
	}
	return build(sysName(name, len(fp.Areas)), is64, tm, fp)
}

func sysName(base string, n int) string {
	if n == 1 {
		return base
	}
	return fmt.Sprintf("%sx%d", base, n)
}

// Dock window strides: region i's dock sits i windows above region 0's.
const (
	dock32Stride = 1 << 12
	dock64Stride = 1 << 16
)

func build(name string, is64 bool, tm Timing, fp region.Floorplan) (*System, error) {
	s := &System{Name: name, Is64: is64, Timing: tm, Floorplan: fp}
	s.K = sim.NewKernel()
	s.CPUClk = sim.NewClock("cpu", tm.CPUHz)
	s.BusClk = sim.NewClock("bus", tm.BusHz)

	s.PLB = bus.New(name+"-plb", s.K, s.BusClk, 8, tm.PLB)
	s.OPB = bus.New(name+"-opb", s.K, s.BusClk, 4, tm.OPB)
	s.Bridge = bus.NewBridge(s.PLB, s.OPB, bridgeBase, tm.BridgeRequestCycles, tm.BridgePostDepth)

	// Fabric and configuration path.
	if is64 {
		s.Dev = fabric.XC2VP30()
	} else {
		s.Dev = fabric.XC2VP7()
	}
	if err := s.Dev.Validate(); err != nil {
		return nil, err
	}
	if err := fp.Validate(s.Dev); err != nil {
		return nil, err
	}
	s.Region = fp.Areas[0].R
	s.CM = fabric.NewConfigMemory(s.Dev)
	loadStaticDesign(s.CM, fp.Regions())
	baseline := s.CM.Clone()
	loader := bitstream.NewLoader(s.CM)
	s.ICAP = icap.New(s.K, s.BusClk, loader)

	// Memories.
	s.BRAM = memctl.NewBRAM(BRAMSize)
	if err := s.PLB.Map(AddrBRAM, BRAMSize, s.BRAM); err != nil {
		return nil, err
	}
	if is64 {
		s.ExtMem = memctl.NewDDR()
		if err := s.PLB.Map(AddrDDR, uint32(s.ExtMem.Size()), s.ExtMem); err != nil {
			return nil, err
		}
	} else {
		s.ExtMem = memctl.NewSRAM()
		if err := s.OPB.Map(AddrSRAM, uint32(s.ExtMem.Size()), s.ExtMem); err != nil {
			return nil, err
		}
	}

	// OPB peripherals (both systems reach them through the bridge).
	s.UART = uart.New()
	if err := s.OPB.Map(AddrUART, 0x100, s.UART); err != nil {
		return nil, err
	}
	if err := s.OPB.Map(AddrICAP, 0x100, s.ICAP); err != nil {
		return nil, err
	}
	if is64 {
		s.INTC = intc.New()
		if err := s.OPB.Map(AddrINTC, 0x100, s.INTC); err != nil {
			return nil, err
		}
	} else {
		s.GPIO = &GPIO{}
		if err := s.OPB.Map(AddrGPIO, 0x100, s.GPIO); err != nil {
			return nil, err
		}
	}
	if err := s.PLB.Map(bridgeBase, bridgeSize, s.Bridge); err != nil {
		return nil, err
	}

	// One dock per dynamic region, at strided windows and interrupt lines.
	for i, a := range fp.Areas {
		rs := &regionSlot{area: a, irqLine: DockIRQLine + i}
		if is64 {
			rs.dockBase = AddrDock64 + uint32(i)*dock64Stride
			rs.dock64 = dock.NewPLBDock(s.K, s.PLB, s.INTC, rs.irqLine, tm.DockReadWaits, tm.DockWriteWaits)
			if err := s.PLB.Map(rs.dockBase, dock64Stride, rs.dock64); err != nil {
				return nil, err
			}
		} else {
			rs.dockBase = AddrDock32 + uint32(i)*dock32Stride
			rs.dock32 = dock.NewOPBDock(tm.DockReadWaits, tm.DockWriteWaits)
			if err := s.OPB.Map(rs.dockBase, dock32Stride, rs.dock32); err != nil {
				return nil, err
			}
		}
		s.regions = append(s.regions, rs)
	}
	s.Dock32 = s.regions[0].dock32
	s.Dock64 = s.regions[0].dock64

	// CPU.
	params := cpu.DefaultParams(s.CPUClk)
	if !tm.DCacheOn {
		params.CacheSize = 0
	}
	s.CPU = cpu.New(s.K, params, s.PLB)
	if tm.DCacheOn {
		s.CPU.MapCacheable(AddrDDR, uint32(s.ExtMem.Size()))
	}
	// Device windows are guarded storage: stores to them do not post.
	s.CPU.MapGuarded(AddrDock32, 0x0500_0000) // docks, HWICAP, UART, GPIO, INTC
	if is64 {
		s.CPU.MapGuarded(AddrDock64, uint32(len(fp.Areas))*dock64Stride)
	}

	// One reconfiguration manager and planner per region. Every manager
	// registers the modules that fit its region; the §2.2 hazard gate and
	// resident tracking are therefore per region, and a sibling's
	// reconfiguration can neither demote this region's state nor read as
	// static corruption (AllRegions excludes every dynamic area from the
	// static hash).
	staticHashes := core.NewStaticHasher(loader, s.CM, fp.Regions())
	for _, rs := range s.regions {
		asm, err := bitlinker.New(s.Dev, rs.area.R, baseline, rs.area.Macro)
		if err != nil {
			return nil, err
		}
		rs.mgr, err = core.NewManager(core.Config{
			Device:       s.Dev,
			Region:       rs.area.R,
			AllRegions:   fp.Regions(),
			ConfigMem:    s.CM,
			Baseline:     baseline,
			Assembler:    asm,
			Loader:       loader,
			CPU:          s.CPU,
			ICAPBase:     AddrICAP,
			ICAP:         s.ICAP,
			Bind:         rs.bind,
			Kernel:       s.K,
			StaticHashes: staticHashes,
		})
		if err != nil {
			return nil, err
		}
		for _, spec := range hwcore.Specs() {
			comp, err := hwcore.BuildComponent(spec, s.Dev, rs.area.R, rs.area.Macro)
			if err != nil {
				rs.skipped = append(rs.skipped, spec.Name)
				continue
			}
			if err := rs.mgr.Register(comp, spec.New); err != nil {
				return nil, err
			}
		}
		rs.planner = plan.NewFor(rs.area.R.Name, rs.mgr)
		rs.planning = true
		rs.dma = icap.NewDMA(s.K, s.BusClk, loader)
	}
	s.Mgr = s.regions[0].mgr
	s.Planner = s.regions[0].planner
	s.Skipped = s.regions[0].skipped
	return s, nil
}

// loadStaticDesign fills the configuration memory with the static design's
// image: deterministic content everywhere except the dynamic region bands,
// which the initial configuration leaves blank. Every region blanks its
// own row band inside its own columns — the same per-column fill the
// single-region floorplan always used.
func loadStaticDesign(cm *fabric.ConfigMemory, regions []fabric.Region) {
	dev := cm.Device()
	type band struct{ lo, hi int }
	clbBand := make(map[int]band)
	bramBand := make(map[int]band)
	for _, r := range regions {
		lo, hi := dev.RowWordRange(r.Row0, r.H)
		for c := r.Col0; c < r.Col0+r.W; c++ {
			clbBand[c] = band{lo, hi}
		}
		for _, b := range dev.BRAMColumns(r) {
			bramBand[b] = band{lo, hi}
		}
	}
	frame := make([]uint32, dev.FrameLen())
	fill := func(far fabric.FAR, b band, blank bool) {
		seed := uint64(far.Word()) ^ 0x57A71C_DE5160
		for i := range frame {
			if blank && i >= b.lo && i < b.hi {
				frame[i] = 0
				continue
			}
			frame[i] = staticWord(seed, i)
		}
		if err := cm.WriteFrame(far, frame); err != nil {
			panic(err)
		}
	}
	for col := 0; col < dev.Cols; col++ {
		b, blank := clbBand[col]
		for minor := 0; minor < fabric.FramesPerCLBColumn; minor++ {
			fill(fabric.FAR{Block: fabric.BlockCLB, Major: col, Minor: minor}, b, blank)
		}
	}
	for bcol := range dev.BRAMColPos {
		b, blank := bramBand[bcol]
		for minor := 0; minor < fabric.FramesPerBRAMColumn; minor++ {
			fill(fabric.FAR{Block: fabric.BlockBRAM, Major: bcol, Minor: minor}, b, blank)
		}
	}
}

func staticWord(seed uint64, i int) uint32 {
	x := seed + uint64(i)*0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return uint32(x ^ (x >> 31))
}

// Now returns the current simulated time.
func (s *System) Now() sim.Time { return s.K.Now() }

// Measure runs fn and returns the simulated time it consumed.
func (s *System) Measure(fn func()) sim.Time {
	start := s.K.Now()
	fn()
	return s.K.Now() - start
}

// MemBase returns the external memory's bus address.
func (s *System) MemBase() uint32 {
	if s.Is64 {
		return AddrDDR
	}
	return AddrSRAM
}

// NumRegions returns how many dynamic regions the floorplan holds.
func (s *System) NumRegions() int { return len(s.regions) }

// RegionAt returns the geometry of region ri.
func (s *System) RegionAt(ri int) fabric.Region { return s.regions[ri].area.R }

// DockBase returns the active region's dock window bus address. Task code
// running inside ExecuteOn drives the region it was dispatched to.
func (s *System) DockBase() uint32 { return s.regions[s.active].dockBase }

// DockData returns the active region's dock data register bus address.
func (s *System) DockData() uint32 { return s.DockBase() + dock.RegData }

// DockIRQ returns the interrupt-controller line of the active region's
// dock (64-bit systems only).
func (s *System) DockIRQ() int { return s.regions[s.active].irqLine }

// Core returns the circuit currently bound to the active region's dock.
func (s *System) Core() hw.Core { return s.regions[s.active].core() }

// CurrentModule returns the module loaded in the active region — the
// region a task dispatched through ExecuteOn is driving. Task code
// verifies its module against this rather than Mgr.Current (region 0).
func (s *System) CurrentModule() string { return s.regions[s.active].mgr.Current() }

// LoadModule reconfigures region 0 with the named module, letting the
// planner choose the cheapest safe stream (a no-op when resident, a
// differential transition when the tracked state is authoritative, the
// complete stream otherwise), and reports what was streamed. It takes the
// system lock, so Status/Resident/PlanFor stay safe concurrently.
func (s *System) LoadModule(name string) (ConfigReport, error) {
	return s.LoadModuleOn(0, name)
}

// LoadModuleOn reconfigures the given region with the named module under
// the planner.
func (s *System) LoadModuleOn(ri int, name string) (ConfigReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := s.regions[ri]
	return s.loadWith(rs, name, rs.planning, nil)
}

// LoadComplete reconfigures region 0 with the module's complete
// configuration stream regardless of planning mode — the state-independent
// worst case (still a no-op when the module is already resident).
func (s *System) LoadComplete(name string) (ConfigReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadWith(s.regions[0], name, false, nil)
}

// WriteMem loads bytes into external memory functionally (test and
// benchmark setup; the board would receive them over the UART or JTAG).
func (s *System) WriteMem(addr uint32, data []byte) error {
	return s.ExtMem.LoadBytes(addr-s.MemBase(), data)
}

// ReadMem copies bytes out of external memory functionally.
func (s *System) ReadMem(addr uint32, size int) ([]byte, error) {
	return s.ExtMem.ReadBytes(addr-s.MemBase(), size)
}
