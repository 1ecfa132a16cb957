package platform

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/bitlinker"
	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dock"
	"repro/internal/fabric"
	"repro/internal/fifo"
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

// resident returns the region's authoritative resident module, "" when
// the tracked state is not authoritative.
func (rs *regionSlot) resident() string {
	r, ok := rs.mgr.ResidentState()
	if !ok {
		return ""
	}
	return r
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

	Dev  *fabric.Device
	CM   *fabric.ConfigMemory
	ICAP *icap.HWICAP

	// Floorplan is the device's set of dynamic areas; every per-region
	// operation takes an index into it.
	Floorplan region.Floorplan
	// Mgr and Planner are region 0's manager and planner, bypassing the
	// system lock. They remain because the repo benchmark's per-layer
	// ladder (benchmark/ladder.go) drives them directly; the paper-table
	// ablations and examples also reach the manager's experiment paths
	// (LoadDifferential, LoadNaive) through Mgr. Every other per-region
	// operation takes a region index.
	Mgr     *core.Manager
	Planner *plan.Planner

	regions []*regionSlot
	// active is the region index task code drives through DockBase/
	// DockData/DockIRQ/DockFIFO/Core; ExecuteOn sets it under the system
	// lock.
	active int

	Timing Timing

	// mu serializes simulated activity. A System models one board: its
	// kernel, CPU and manager are single-threaded, so concurrent users
	// (the scheduler's pool workers) must go through ExecuteOn/Status,
	// which take this lock. Two regions of one board never compute
	// simultaneously — sibling activity interleaves on this lock.
	mu sync.Mutex

	// tracer, when set by SetTracer, receives the plans the load path
	// executes, hazard verdicts, demotions and DMA port windows from this
	// board's regions, stamped with the member's simulated kernel time;
	// traceMember is the pool member ID the events carry.
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

// image is the boot image of one board shape, a (device, floorplan) pair:
// the static design's baseline and, per region, every module that fits,
// assembled, and the memo of the transitions between them. BitLinker
// merges each module into the static baseline, so all of it depends only
// on the shape. Every board of the shape boots its configuration memory
// as an overlay of the baseline, registers the shared modules and reads
// the shared memos; nothing writes the baseline or a module once the
// image is built, and the memos only fill in.
type image struct {
	dev      *fabric.Device
	baseline *fabric.ConfigMemory
	regions  []imageRegion
}

// imageRegion is one region's part of a boot image.
type imageRegion struct {
	memo    *core.Memo
	modules []*core.Module
}

// images memoizes one boot image per shape for the life of the process:
// each shapeKey maps to a sync.OnceValues that builds the shape's image on
// its first call, so the memory it keeps is bounded by the distinct shapes
// a process boots and the transitions their boards ask for.
var images sync.Map

// shapeKey spells a validated shape out by value: the board width and
// every area's region and bus macro. Two floorplans built apart (two
// region.Default calls, say) share one image, and so do floorplans that
// differ only in name, which labels a floorplan but configures nothing.
func shapeKey(is64 bool, fp region.Floorplan) string {
	var b strings.Builder
	fmt.Fprint(&b, is64)
	for _, a := range fp.Areas {
		fmt.Fprintf(&b, " %#v %#v", a.R, *a.Macro)
	}
	return b.String()
}

// bootImage validates the device and floorplan and returns the shape's
// image, building it on first use. Boards of one shape booting at once
// wait for the one build. Validation runs for every board, so an error
// names this board's floorplan, whose name the key leaves out.
func bootImage(is64 bool, fp region.Floorplan) (*image, error) {
	dev := fabric.XC2VP7()
	if is64 {
		dev = fabric.XC2VP30()
	}
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	if err := fp.Validate(dev); err != nil {
		return nil, err
	}
	build, _ := images.LoadOrStore(shapeKey(is64, fp), sync.OnceValues(func() (*image, error) {
		return buildImage(dev, fp)
	}))
	return build.(func() (*image, error))()
}

// buildImage loads the static design into a fresh configuration memory,
// assembles every module that fits each region of the validated floorplan
// and gives each region an empty transition memo.
func buildImage(dev *fabric.Device, fp region.Floorplan) (*image, error) {
	img := &image{dev: dev, baseline: fabric.NewConfigMemory(dev)}
	loadStaticDesign(img.baseline, fp.Regions())
	for _, a := range fp.Areas {
		asm, err := bitlinker.New(dev, a.R, img.baseline, a.Macro)
		if err != nil {
			return nil, err
		}
		ir := imageRegion{memo: core.NewMemo(asm, img.baseline)}
		for _, spec := range hwcore.Specs() {
			comp, err := hwcore.BuildComponent(spec, dev, a.R, a.Macro)
			if err != nil {
				continue // the module does not fit the region
			}
			mod, err := core.NewModule(asm, comp, spec.New)
			if err != nil {
				return nil, err
			}
			ir.modules = append(ir.modules, mod)
		}
		img.regions = append(img.regions, ir)
	}
	return img, nil
}

func build(name string, is64 bool, tm Timing, fp region.Floorplan) (*System, error) {
	img, err := bootImage(is64, fp)
	if err != nil {
		return nil, err
	}
	s := &System{Name: name, Is64: is64, Timing: tm, Floorplan: fp}
	s.K = sim.NewKernel()
	s.CPUClk = sim.NewClock("cpu", tm.CPUHz)
	s.BusClk = sim.NewClock("bus", tm.BusHz)

	s.PLB = bus.New(name+"-plb", s.K, s.BusClk, 8, tm.PLB)
	s.OPB = bus.New(name+"-opb", s.K, s.BusClk, 4, tm.OPB)
	s.Bridge = bus.NewBridge(s.PLB, s.OPB, bridgeBase, tm.BridgeRequestCycles, tm.BridgePostDepth)

	// Fabric and configuration path: the board's own configuration memory
	// starts as the shape's static design, guarded. It is an overlay of the
	// shape's baseline, so it copies a frame only when the board first
	// writes or flips it.
	s.Dev = img.dev
	s.CM = img.baseline.Overlay()
	s.CM.Guard(fp.Regions()...)
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
	// registers the shape's modules that fit its region and reads the
	// shape region's memo; the §2.2 hazard gate and resident tracking are
	// per region and per board, and a sibling's reconfiguration can
	// neither demote this region's state nor read as static corruption
	// (the memory's guard leaves every dynamic area out of the static
	// design).
	for i, rs := range s.regions {
		ir := img.regions[i]
		rs.mgr, err = core.NewManager(core.Config{
			Device:    s.Dev,
			Region:    rs.area.R,
			ConfigMem: s.CM,
			Memo:      ir.memo,
			Loader:    loader,
			CPU:       s.CPU,
			ICAPBase:  AddrICAP,
			ICAP:      s.ICAP,
			Bind:      rs.bind,
			Kernel:    s.K,
		})
		if err != nil {
			return nil, err
		}
		for _, mod := range ir.modules {
			if err := rs.mgr.Register(mod); err != nil {
				return nil, err
			}
		}
		rs.planner = plan.New(rs.mgr)
		rs.planning = true
		rs.dma = icap.NewDMA(s.K, s.BusClk, loader)
	}
	s.Mgr = s.regions[0].mgr
	s.Planner = s.regions[0].planner
	return s, nil
}

// loadStaticDesign fills the configuration memory with the static design's
// image: deterministic content everywhere except the regions' owned word
// ranges, which the initial configuration leaves blank. The ranges are the
// Bands the memory's guard marks, so the blank words are exactly those no
// static word covers.
func loadStaticDesign(cm *fabric.ConfigMemory, regions []fabric.Region) {
	dev := cm.Device()
	_, owned := dev.Bands(regions...)
	frame := make([]uint32, dev.FrameLen())
	for i := range dev.NumFrames() {
		far, _ := dev.FARAt(i)
		seed := uint64(far.Word()) ^ 0x57A71C_DE5160
		for w := range frame {
			frame[w] = staticWord(seed, w)
		}
		for _, s := range owned[dev.Column(i)] {
			clear(frame[s.Lo:s.Hi])
		}
		if err := cm.WriteFrame(far, frame); err != nil {
			panic(err)
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

// AdvanceTo moves the board's clock forward to t under the system lock,
// firing due events on the way; it does nothing when t is not later.
func (s *System) AdvanceTo(t sim.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t > s.K.Now() {
		s.K.AdvanceTo(t)
	}
}

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

// DockFIFO returns the output FIFO of the active region's dock (64-bit
// systems only).
func (s *System) DockFIFO() *fifo.F { return s.regions[s.active].dock64.FIFO() }

// Core returns the circuit currently bound to the active region's dock.
func (s *System) Core() hw.Core { return s.regions[s.active].core() }

// CurrentModule returns the module loaded in the active region — the
// region a task dispatched through ExecuteOn is driving.
func (s *System) CurrentModule() string { return s.regions[s.active].mgr.Current() }

// WriteMem loads bytes into external memory functionally (test and
// benchmark setup; the board would receive them over the UART or JTAG).
func (s *System) WriteMem(addr uint32, data []byte) error {
	return s.ExtMem.LoadBytes(addr-s.MemBase(), data)
}

// ReadMem copies bytes out of external memory functionally.
func (s *System) ReadMem(addr uint32, size int) ([]byte, error) {
	return s.ExtMem.ReadBytes(addr-s.MemBase(), size)
}
