package platform

import "repro/internal/fabric"

// StaticModule is one row of the static design's resource-usage table
// (Tables 1 and 6 of the paper).
type StaticModule struct {
	Name string
	Bus  string // attachment point
	Res  fabric.Resources
}

// Inventory returns the static design's module list with synthesis-sized
// resource figures representative of EDK-era CoreConnect IP, plus the
// dynamic area reservation. The figures are consistent with the anchors the
// paper states: the dynamic area is 25% of the 32-bit device's slices and
// 22.4% of the 64-bit device's.
func (s *System) Inventory() []StaticModule {
	if s.Is64 {
		return []StaticModule{
			{"PPC405 wrapper + JTAGPPC", "-", fabric.Resources{Slices: 12, LUTs: 8, FFs: 16}},
			{"PLB bus (64-bit)", "plb", fabric.Resources{Slices: 150, LUTs: 260, FFs: 180}},
			{"OPB bus", "opb", fabric.Resources{Slices: 60, LUTs: 100, FFs: 70}},
			{"PLB DDR controller", "plb", fabric.Resources{Slices: 950, LUTs: 1550, FFs: 1280, BRAMs: 0}},
			{"PLB BRAM controller", "plb", fabric.Resources{Slices: 90, LUTs: 140, FFs: 110, BRAMs: 8}},
			{"PLB-OPB bridge", "plb", fabric.Resources{Slices: 240, LUTs: 390, FFs: 320}},
			{"OPB HWICAP", "opb", fabric.Resources{Slices: 150, LUTs: 240, FFs: 190, BRAMs: 1}},
			{"OPB UART", "opb", fabric.Resources{Slices: 110, LUTs: 180, FFs: 130}},
			{"OPB interrupt controller", "opb", fabric.Resources{Slices: 90, LUTs: 150, FFs: 120}},
			{"Reset block", "-", fabric.Resources{Slices: 25, LUTs: 40, FFs: 35}},
			{"PLB Dock (DMA + FIFO + IRQ)", "plb", fabric.Resources{Slices: 680, LUTs: 1120, FFs: 930, BRAMs: 8}},
		}
	}
	return []StaticModule{
		{"PPC405 wrapper + JTAGPPC", "-", fabric.Resources{Slices: 12, LUTs: 8, FFs: 16}},
		{"PLB bus (64-bit)", "plb", fabric.Resources{Slices: 110, LUTs: 190, FFs: 140}},
		{"OPB bus", "opb", fabric.Resources{Slices: 60, LUTs: 100, FFs: 70}},
		{"PLB BRAM controller", "plb", fabric.Resources{Slices: 90, LUTs: 140, FFs: 110, BRAMs: 8}},
		{"PLB-OPB bridge", "plb", fabric.Resources{Slices: 240, LUTs: 390, FFs: 320}},
		{"OPB EMC (external SRAM)", "opb", fabric.Resources{Slices: 190, LUTs: 310, FFs: 230}},
		{"OPB HWICAP", "opb", fabric.Resources{Slices: 150, LUTs: 240, FFs: 190, BRAMs: 1}},
		{"OPB UART", "opb", fabric.Resources{Slices: 110, LUTs: 180, FFs: 130}},
		{"OPB GPIO", "opb", fabric.Resources{Slices: 45, LUTs: 70, FFs: 60}},
		{"Reset block", "-", fabric.Resources{Slices: 25, LUTs: 40, FFs: 35}},
		{"OPB Dock (incl. bus macros)", "opb", fabric.Resources{Slices: 200, LUTs: 340, FFs: 260}},
	}
}

// StaticTotal sums the static inventory.
func (s *System) StaticTotal() fabric.Resources {
	var total fabric.Resources
	for _, m := range s.Inventory() {
		total = total.Add(m.Res)
	}
	return total
}

// BudgetCheck verifies that static design plus dynamic area fit the device.
func (s *System) BudgetCheck() error {
	r := s.RegionAt(0)
	total := s.StaticTotal().Add(fabric.Resources{
		Slices: r.Slices(),
		LUTs:   r.LUTs(),
		FFs:    r.FFs(),
		BRAMs:  r.BRAMBudget,
	})
	if !total.FitsDevice(s.Dev) {
		return errBudget(s.Name, total, s.Dev)
	}
	return nil
}

func errBudget(name string, total fabric.Resources, dev *fabric.Device) error {
	return &budgetError{name: name, total: total, dev: dev}
}

type budgetError struct {
	name  string
	total fabric.Resources
	dev   *fabric.Device
}

func (e *budgetError) Error() string {
	return "platform: " + e.name + " exceeds device capacity: needs " + e.total.String() +
		", device " + e.dev.String()
}
