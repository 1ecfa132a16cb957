package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/platform"
)

// Figure1 renders the generic system architecture of figure 1.
func Figure1(w io.Writer) {
	fmt.Fprint(w, `F1 — General system architecture (figure 1)

  +--------------------------------------------------------------+
  |                        platform FPGA                         |
  |  +-------+   +----------------+   +------------------------+ |
  |  |  CPU  |===|  on-chip buses |===| memory interface unit  |-+--> ext. memory
  |  +-------+   +----------------+   +------------------------+ |
  |                  ||        ||                                |
  |   +---------------------+  +------------------------------+  |
  |   | configuration       |  | dynamic area communication   |  |
  |   | control unit (ICAP) |  | unit ("dock", bus + DMA)     |  |
  |   +---------------------+  +------------------------------+  |
  |              |                        || bus macros          |
  |   +----------v------------------------vv-------------------+ |
  |   |            dynamic area (run-time reconfigured)        | |
  |   +---------------------------------------------------------+|
  |   +----------------------------+                             |
  |   | external communication unit|--> serial port / host       |
  |   +----------------------------+                             |
  +--------------------------------------------------------------+

`)
}

// Figure2 renders the LUT-based bus macro of figure 2.
func Figure2(w io.Writer) {
	fmt.Fprint(w, `F2 — LUT-based bus macros (figure 2)

        static side          |          dynamic side
                             |
   component A  In(0) >--[LUT]--[LUT]--> Out(0)  component B
   component A  In(1) >--[LUT]--[LUT]--> Out(1)  component B
                             |
   The LUT positions are fixed by the macro, so components implemented
   separately can be assembled by concatenating their configurations;
   the assembly tool verifies that the ports line up (§2.2).

`)
}

// Floorplan renders the actual floorplan of a system (figures 3 and 4),
// derived from the real device geometry and region placement.
func Floorplan(w io.Writer, s *platform.System) {
	id, title := "F3", "The 32-bit system architecture (figure 3)"
	if s.Is64 {
		id, title = "F4", "The 64-bit system architecture (figure 4)"
	}
	if s.NumRegions() > 1 {
		id = "F5"
		title = fmt.Sprintf("Multi-region floorplan: %d independently reconfigurable areas (%s)", s.NumRegions(), s.Name)
	}
	fmt.Fprintf(w, "%s — %s\n\n", id, title)
	d := s.Dev
	// One character per CLB column, one row per 4 CLB rows (top row first).
	const rowStep = 4
	mark := "'#'=dynamic area"
	if s.NumRegions() > 1 {
		mark = "digits=dynamic regions"
	}
	fmt.Fprintf(w, "  device %s: %d x %d CLB sites, %d BRAMs; %s, 'P'=PPC405, 'B'=BRAM column, '.'=static logic\n\n",
		d.Name, d.Rows, d.Cols, d.BRAMCount(), mark)
	bcol := make(map[int]bool)
	for _, p := range d.BRAMColPos {
		bcol[p] = true
	}
	regionAt := func(row, col int) int {
		for ri := 0; ri < s.NumRegions(); ri++ {
			if s.RegionAt(ri).ContainsSite(row, col) {
				return ri
			}
		}
		return -1
	}
	for row := d.Rows - rowStep; row >= 0; row -= rowStep {
		var b strings.Builder
		b.WriteString("  |")
		for col := 0; col < d.Cols; col++ {
			ri := regionAt(row, col)
			switch {
			case d.SiteDisplaced(row, col):
				b.WriteByte('P')
			case ri >= 0 && s.NumRegions() > 1:
				b.WriteByte(byte('0' + ri%10))
			case ri >= 0:
				b.WriteByte('#')
			case bcol[col]:
				b.WriteByte('B')
			default:
				b.WriteByte('.')
			}
		}
		b.WriteString("|")
		fmt.Fprintln(w, b.String())
	}
	fmt.Fprintln(w)
	for ri := 0; ri < s.NumRegions(); ri++ {
		r := s.RegionAt(ri)
		fmt.Fprintf(w, "  dynamic area %s: cols [%d,%d) rows [%d,%d) = %d CLBs (%d slices, %.1f%% of device), %d BRAMs\n",
			r.Name, r.Col0, r.Col0+r.W, r.Row0, r.Row0+r.H, r.CLBs(), r.Slices(),
			100*float64(r.Slices())/float64(d.SliceCount()), r.BRAMBudget)
		for _, sp := range d.Frames(r) {
			fmt.Fprintf(w, "    ICAP stream addressing: frames [%d,%d) (%d frames)\n", sp.Lo, sp.Hi, sp.Len())
		}
	}
	if s.Is64 {
		fmt.Fprint(w, `
  CPU(300 MHz) == PLB(64b,100 MHz) ==+== DDR controller (512 MB)
                                     +== PLB Dock (DMA, FIFO 2047x64, IRQ) -> dynamic area
                                     +== PLB-OPB bridge == OPB(32b,100 MHz) ==+== HWICAP -> ICAP
                                                                              +== UART
                                                                              +== interrupt controller

`)
	} else {
		fmt.Fprint(w, `
  CPU(200 MHz) == PLB(64b,50 MHz) ==+== BRAM controller
                                    +== PLB-OPB bridge == OPB(32b,50 MHz) ==+== EMC -> SRAM (32 MB)
                                                                            +== OPB Dock -> dynamic area
                                                                            +== HWICAP -> ICAP
                                                                            +== UART, GPIO

`)
	}
}
