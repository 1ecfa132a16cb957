package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/ref"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tasks"
)

// Table is one regenerated artifact.
type Table struct {
	ID      string // e.g. "T2" for Table 2, "S1" for the scheduler table
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string

	// rawNS carries the machine-readable values behind the formatted rows
	// (per-transfer times or speedups), for dependent tables and tests.
	rawNS []float64
}

// Raw returns the machine-readable values behind the rows (one per row for
// the measurement tables): per-transfer times in femtoseconds or speedup
// factors, depending on the table.
func (t *Table) Raw() []float64 { return t.rawNS }

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Format renders the table as aligned text.
func (t *Table) Format(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	total := 2
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintf(w, "  %s\n", strings.Repeat("-", total-4))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// fmtNS renders a femtosecond duration with an adequate unit.
func fmtNS(fs float64) string {
	switch {
	case fs >= 1e12:
		return fmt.Sprintf("%.3f ms", fs/1e12)
	case fs >= 1e9:
		return fmt.Sprintf("%.3f us", fs/1e9)
	default:
		return fmt.Sprintf("%.1f ns", fs/1e6)
	}
}

// Sys32 and Sys64 build fresh systems, failing loudly on wiring errors —
// table generators assume a correct platform.
func Sys32() *platform.System {
	s, err := platform.NewSys32()
	if err != nil {
		panic(err)
	}
	return s
}

// Sys64 builds the 64-bit system.
func Sys64() *platform.System {
	s, err := platform.NewSys64()
	if err != nil {
		panic(err)
	}
	return s
}

func mustLoad(s *platform.System, mod string) {
	if _, err := s.LoadModuleOn(0, mod, nil); err != nil {
		panic(err)
	}
}

// ResourceTable regenerates Table 1 (32-bit) or Table 6 (64-bit): the
// resource usage of the static system plus the dynamic area reservation.
func ResourceTable(s *platform.System) *Table {
	id, title := "T1", "Resource usage (32-bit system)"
	if s.Is64 {
		id, title = "T6", "Resource usage (64-bit system)"
	}
	t := &Table{ID: id, Title: title,
		Columns: []string{"module", "bus", "slices", "LUTs", "FFs", "BRAMs"}}
	for _, m := range s.Inventory() {
		t.AddRow(m.Name, m.Bus,
			fmt.Sprint(m.Res.Slices), fmt.Sprint(m.Res.LUTs),
			fmt.Sprint(m.Res.FFs), fmt.Sprint(m.Res.BRAMs))
	}
	st := s.StaticTotal()
	t.AddRow("static total", "",
		fmt.Sprintf("%d (%.1f%%)", st.Slices, st.SlicePercent(s.Dev)),
		fmt.Sprint(st.LUTs), fmt.Sprint(st.FFs), fmt.Sprint(st.BRAMs))
	r := s.RegionAt(0)
	t.AddRow("dynamic area", "",
		fmt.Sprintf("%d (%.1f%%)", r.Slices(), 100*float64(r.Slices())/float64(s.Dev.SliceCount())),
		fmt.Sprint(r.LUTs()), fmt.Sprint(r.FFs()), fmt.Sprint(r.BRAMBudget))
	t.AddRow("device capacity", "",
		fmt.Sprint(s.Dev.SliceCount()), fmt.Sprint(s.Dev.LUTCount()),
		fmt.Sprint(s.Dev.FFCount()), fmt.Sprint(s.Dev.BRAMCount()))
	t.Notes = append(t.Notes,
		fmt.Sprintf("device %s, dynamic area %dx%d=%d CLBs", s.Dev.Name, r.W, r.H, r.CLBs()))
	return t
}

// transferWords is the sequence length of the transfer measurements.
const transferWords = 8192

// TransferCPUTable regenerates Table 2 (on Sys32) or Table 7 (on Sys64):
// average times of program-controlled 32-bit transfers between the dynamic
// region and external memory.
func TransferCPUTable(s *platform.System, baseline *Table) *Table {
	id, title := "T2", "Measured times for data transfers between dynamic region and external memory (32 bit)"
	if s.Is64 {
		id, title = "T7", "Measured times for 32-bit data transfers between dynamic region and external memory (CPU controlled)"
	}
	t := &Table{ID: id, Title: title,
		Columns: []string{"transfer type", "time/transfer", "MB/s"}}
	if baseline != nil {
		t.Columns = append(t.Columns, "vs 32-bit system")
	}
	mustLoad(s, "passthrough")
	for i, kind := range []tasks.TransferKind{tasks.TransferWrite, tasks.TransferRead, tasks.TransferInterleaved} {
		avg, err := tasks.TransferCPU(s, kind, transferWords)
		if err != nil {
			panic(err)
		}
		bytes := 4.0
		if kind == tasks.TransferInterleaved {
			bytes = 8.0 // one word each way
		}
		row := []string{kind.String(), fmtNS(float64(avg)), fmt.Sprintf("%.1f", bytes/avg.Microseconds())}
		if baseline != nil {
			base := baseline.Rows[i][1]
			row = append(row, fmt.Sprintf("%.1fx faster (was %s)", baseline.rawNS[i]/float64(avg), base))
		}
		t.Rows = append(t.Rows, row)
		t.rawNS = append(t.rawNS, float64(avg))
	}
	return t
}

// TransferDMATable regenerates Table 8: DMA-controlled 64-bit transfers.
func TransferDMATable(s *platform.System) *Table {
	t := &Table{ID: "T8",
		Title:   "Measured times for 64-bit data transfers between dynamic region and external memory (DMA-controlled)",
		Columns: []string{"transfer type", "time/64-bit transfer", "MB/s"}}
	mustLoad(s, "passthrough")
	for _, kind := range []tasks.TransferKind{tasks.TransferWrite, tasks.TransferRead, tasks.TransferInterleaved} {
		avg, err := tasks.TransferDMA(s, kind, transferWords)
		if err != nil {
			panic(err)
		}
		bytes := 8.0
		if kind == tasks.TransferInterleaved {
			bytes = 16.0
		}
		t.AddRow(kind.String(), fmtNS(float64(avg)), fmt.Sprintf("%.1f", bytes/avg.Microseconds()))
		t.rawNS = append(t.rawNS, float64(avg))
	}
	t.Notes = append(t.Notes,
		"interleaved transfers are block-interleaved through the 2047-entry output FIFO (§4.2)")
	return t
}

// patternSizes are the image sizes of the pattern-matching tables.
var patternSizes = []struct{ W, H int }{{64, 64}, {128, 128}, {192, 192}}

// PatternTable regenerates Table 3 (Sys32) or Table 9 (Sys64): software vs
// hardware bilevel pattern matching.
func PatternTable(s *platform.System) *Table {
	id, title := "T3", "Results for pattern matching in binary images (32 bit)"
	if s.Is64 {
		id, title = "T9", "Results for pattern matching in binary images (64 bit)"
	}
	t := &Table{ID: id, Title: title,
		Columns: []string{"image", "software", "hardware", "speedup"}}
	rng := rand.New(rand.NewSource(42))
	for _, size := range patternSizes {
		im := ref.NewBinaryImage(size.W, size.H)
		for i := range im.Words {
			im.Words[i] = rng.Uint32()
		}
		var p ref.Pattern8
		for j := range p {
			p[j] = byte(rng.Uint32())
		}
		a := tasks.PatternArgs{
			ImgAddr: s.MemBase() + 0x10_0000, W: size.W, H: size.H,
			Pattern: p, Threshold: 56, LUTAddr: s.MemBase() + 0x8040,
		}
		if err := tasks.LoadPatternImage(s, a.ImgAddr, im); err != nil {
			panic(err)
		}
		if err := tasks.LoadPopcountLUT(s, a.LUTAddr); err != nil {
			panic(err)
		}
		var swRes, hwRes tasks.PatternResult
		coldCache(s, a.ImgAddr, 4*len(im.Words))
		swT := s.Measure(func() { swRes = tasks.PatternMatchSW(s, a) })
		mustLoad(s, "patternmatch")
		var err error
		coldCache(s, a.ImgAddr, 4*len(im.Words))
		hwT := s.Measure(func() { hwRes, err = tasks.PatternMatchHW(s, a) })
		if err != nil {
			panic(err)
		}
		if swRes != hwRes {
			panic(fmt.Sprintf("bench: pattern results diverge: sw=%+v hw=%+v", swRes, hwRes))
		}
		t.AddRow(fmt.Sprintf("%dx%d", size.W, size.H),
			fmtNS(float64(swT)), fmtNS(float64(hwT)),
			fmt.Sprintf("%.1f", float64(swT)/float64(hwT)))
		t.rawNS = append(t.rawNS, float64(swT)/float64(hwT))
	}
	return t
}

// jenkinsSizes are the key lengths of the hash tables.
var jenkinsSizes = []int{256, 1024, 4096, 16384, 65536}

// JenkinsTable regenerates Table 4 (Sys32) or Table 10 (Sys64).
func JenkinsTable(s *platform.System) *Table {
	id, title := "T4", "Results for hash function (32 bit)"
	if s.Is64 {
		id, title = "T10", "Results for a hash function implementation (64 bit)"
	}
	t := &Table{ID: id, Title: title,
		Columns: []string{"key size", "software", "hardware", "speedup"}}
	rng := rand.New(rand.NewSource(43))
	for _, n := range jenkinsSizes {
		key := make([]byte, n)
		rng.Read(key)
		addr := s.MemBase() + 0x20_0000
		if err := s.WriteMem(addr, key); err != nil {
			panic(err)
		}
		a := tasks.JenkinsArgs{KeyAddr: addr, KeyLen: n, InitVal: 0}
		var swV, hwV uint32
		coldCache(s, addr, n)
		swT := s.Measure(func() { swV = tasks.JenkinsSW(s, a) })
		mustLoad(s, "jenkins")
		var err error
		coldCache(s, addr, n)
		hwT := s.Measure(func() { hwV, err = tasks.JenkinsHW(s, a) })
		if err != nil {
			panic(err)
		}
		if swV != hwV || swV != ref.Lookup2(key, 0) {
			panic("bench: hash results diverge")
		}
		t.AddRow(fmt.Sprintf("%d B", n),
			fmtNS(float64(swT)), fmtNS(float64(hwT)),
			fmt.Sprintf("%.2f", float64(swT)/float64(hwT)))
		t.rawNS = append(t.rawNS, float64(swT)/float64(hwT))
	}
	return t
}

// sha1Sizes are the message lengths of Table 11.
var sha1Sizes = []int{64, 1024, 16384, 131072}

// SHA1Table regenerates Table 11 (64-bit system only; the core does not fit
// the 32-bit dynamic area).
func SHA1Table(s *platform.System) *Table {
	t := &Table{ID: "T11", Title: "Results for SHA-1 implementation",
		Columns: []string{"message", "software", "hardware", "speedup"}}
	rng := rand.New(rand.NewSource(44))
	for _, n := range sha1Sizes {
		msg := make([]byte, n)
		rng.Read(msg)
		addr := s.MemBase() + 0x30_0000
		if err := s.WriteMem(addr, msg); err != nil {
			panic(err)
		}
		a := tasks.SHA1Args{MsgAddr: addr, MsgLen: n, PadAddr: s.MemBase() + 0x60_0000}
		var swH, hwH [5]uint32
		var err error
		coldCache(s, addr, n)
		swT := s.Measure(func() { swH, err = tasks.SHA1SW(s, a) })
		if err != nil {
			panic(err)
		}
		mustLoad(s, "sha1")
		coldCache(s, addr, n)
		hwT := s.Measure(func() { hwH, err = tasks.SHA1HW(s, a) })
		if err != nil {
			panic(err)
		}
		if swH != hwH {
			panic("bench: SHA-1 results diverge")
		}
		t.AddRow(fmt.Sprintf("%d B", n),
			fmtNS(float64(swT)), fmtNS(float64(hwT)),
			fmt.Sprintf("%.1f", float64(swT)/float64(hwT)))
		t.rawNS = append(t.rawNS, float64(swT)/float64(hwT))
	}
	t.Notes = append(t.Notes,
		"not reproducible on the 32-bit system: the SHA-1 core does not fit its dynamic area (§4.2)",
		"the software's fixed overhead dominates small messages and fades with size")
	return t
}

// imagePixels is the image size of the image-processing tables (256x256).
const imagePixels = 256 * 256

// ImageTable32 regenerates Table 5: speedups for the three image tasks with
// CPU-controlled 32-bit transfers.
func ImageTable32(s *platform.System) *Table {
	t := &Table{ID: "T5", Title: "Speedups for simple image processing tasks (32 bit)",
		Columns: []string{"task", "software", "hardware", "speedup"}}
	a, check := imageSetup(s)
	run := func(name string, sw func() error, hw func() error, want []byte) {
		coldImage(s, a)
		swT := s.Measure(func() { must(sw()) })
		s.CPU.Sync()
		check(name+" sw", want)
		mustLoad(s, name)
		coldImage(s, a)
		hwT := s.Measure(func() { must(hw()) })
		check(name+" hw", want)
		t.AddRow(name, fmtNS(float64(swT)), fmtNS(float64(hwT)),
			fmt.Sprintf("%.2f", float64(swT)/float64(hwT)))
		t.rawNS = append(t.rawNS, float64(swT)/float64(hwT))
	}
	wantB, wantBl, wantF := imageWants(s, a)
	run("brightness", func() error { return tasks.BrightnessSW(s, a) },
		func() error { return tasks.BrightnessHW(s, a) }, wantB)
	run("blend", func() error { return tasks.BlendSW(s, a) },
		func() error { return tasks.BlendHW(s, a) }, wantBl)
	run("fade", func() error { return tasks.FadeSW(s, a) },
		func() error { return tasks.FadeHW(s, a) }, wantF)
	return t
}

// ImageTable64 regenerates Table 12: the same tasks with 64-bit DMA
// transfers, including the data-preparation overhead column.
func ImageTable64(s *platform.System) *Table {
	t := &Table{ID: "T12", Title: "Results for simple image processing tasks (64 bit)",
		Columns: []string{"task", "software", "hardware (DMA)", "data preparation", "speedup"}}
	a, check := imageSetup(s)
	scratch := s.MemBase() + 0x60_0000
	packed := s.MemBase() + 0x80_0000
	wantB, wantBl, wantF := imageWants(s, a)

	coldImage(s, a)
	swT := s.Measure(func() { must(tasks.BrightnessSW(s, a)) })
	s.CPU.Sync()
	check("brightness sw", wantB)
	mustLoad(s, "brightness")
	coldImage(s, a)
	hwT := s.Measure(func() { must(tasks.BrightnessDMA(s, a, scratch)) })
	check("brightness dma", wantB)
	t.AddRow("brightness", fmtNS(float64(swT)), fmtNS(float64(hwT)), "-",
		fmt.Sprintf("%.2f", float64(swT)/float64(hwT)))
	t.rawNS = append(t.rawNS, float64(swT)/float64(hwT))

	coldImage(s, a)
	swT = s.Measure(func() { must(tasks.BlendSW(s, a)) })
	s.CPU.Sync()
	check("blend sw", wantBl)
	mustLoad(s, "blend")
	var res tasks.CombineDMAResult
	coldImage(s, a)
	hwT = s.Measure(func() {
		r, err := tasks.BlendDMA(s, a, scratch, packed)
		must(err)
		res = r
	})
	check("blend dma", wantBl)
	t.AddRow("blend", fmtNS(float64(swT)), fmtNS(float64(hwT)),
		fmtNS(float64(res.PrepTime)), fmt.Sprintf("%.2f", float64(swT)/float64(hwT)))
	t.rawNS = append(t.rawNS, float64(swT)/float64(hwT))

	coldImage(s, a)
	swT = s.Measure(func() { must(tasks.FadeSW(s, a)) })
	s.CPU.Sync()
	check("fade sw", wantF)
	mustLoad(s, "fade")
	coldImage(s, a)
	hwT = s.Measure(func() {
		r, err := tasks.FadeDMA(s, a, scratch, packed)
		must(err)
		res = r
	})
	check("fade dma", wantF)
	t.AddRow("fade", fmtNS(float64(swT)), fmtNS(float64(hwT)),
		fmtNS(float64(res.PrepTime)), fmt.Sprintf("%.2f", float64(swT)/float64(hwT)))
	t.rawNS = append(t.rawNS, float64(swT)/float64(hwT))

	t.Notes = append(t.Notes,
		"data preparation: the CPU combines the two source images before DMA (§4.2)")
	return t
}

func imageSetup(s *platform.System) (tasks.ImageArgs, func(string, []byte)) {
	rng := rand.New(rand.NewSource(45))
	srcA := make([]byte, imagePixels)
	srcB := make([]byte, imagePixels)
	rng.Read(srcA)
	rng.Read(srcB)
	// The three buffers are offset by odd line counts so they do not alias
	// in the 2-way set-associative cache.
	a := tasks.ImageArgs{
		SrcA: s.MemBase() + 0x10_0000,
		SrcB: s.MemBase() + 0x20_0040,
		Dst:  s.MemBase() + 0x30_0080,
		N:    imagePixels, Delta: 45, F: 96,
	}
	must(s.WriteMem(a.SrcA, srcA))
	must(s.WriteMem(a.SrcB, srcB))
	check := func(what string, want []byte) {
		got, err := s.ReadMem(a.Dst, a.N)
		must(err)
		for i := range want {
			if got[i] != want[i] {
				panic(fmt.Sprintf("bench: %s: pixel %d = %d, want %d", what, i, got[i], want[i]))
			}
		}
	}
	return a, check
}

func imageWants(s *platform.System, a tasks.ImageArgs) (b, bl, f []byte) {
	srcA, err := s.ReadMem(a.SrcA, a.N)
	must(err)
	srcB, err := s.ReadMem(a.SrcB, a.N)
	must(err)
	b = make([]byte, a.N)
	bl = make([]byte, a.N)
	f = make([]byte, a.N)
	ref.Brightness(b, srcA, a.Delta)
	ref.Blend(bl, srcA, srcB)
	ref.Fade(f, srcA, srcB, a.F)
	return
}

// ConfigTimeTable is ablation A1: complete vs differential configuration
// streams — the size/time cost BitLinker pays for state independence. It
// turns planning off on s, a fresh system, so its planned loads stream the
// complete configuration.
func ConfigTimeTable(s *platform.System) *Table {
	t := &Table{ID: "A1", Title: "Configuration time: complete vs differential partial bitstreams",
		Columns: []string{"transition", "stream", "size", "time"}}
	s.SetPlanning(false)
	full, err := s.LoadModuleOn(0, "brightness", nil)
	must(err)
	t.AddRow("(blank) -> brightness", "complete", fmt.Sprintf("%d B", full.Bytes), fmtNS(float64(full.Time)))

	full2, err := s.LoadModuleOn(0, "blend", nil)
	must(err)
	t.AddRow("brightness -> blend", "complete", fmt.Sprintf("%d B", full2.Bytes), fmtNS(float64(full2.Time)))

	diffBytes, _, err := s.Mgr.DifferentialSize("blend", "brightness")
	must(err)
	diff, err := s.Mgr.LoadDifferential("brightness", "blend")
	must(err)
	t.AddRow("blend -> brightness", "differential", fmt.Sprintf("%d B", diffBytes), fmtNS(float64(diff)))
	t.rawNS = []float64{float64(full2.Time), float64(diff)}
	t.Notes = append(t.Notes,
		"complete streams configure correctly from any prior state; differential streams are smaller and faster but assume a known prior state (§2.2)")
	return t
}

// HazardTable is ablation A2: what happens when the §2.2 rules are broken.
// Like A1 it turns planning off on s, a fresh system: its recovery load is
// a complete stream.
func HazardTable(s *platform.System) *Table {
	t := &Table{ID: "A2", Title: "Reconfiguration correctness scenarios",
		Columns: []string{"scenario", "bound circuit", "static design"}}
	report := func(scenario string) {
		bound := s.Mgr.Current()
		if bound == "" {
			bound = "BROKEN"
		}
		static := "intact"
		if s.Mgr.Corrupted() {
			static = "CORRUPTED"
		}
		t.AddRow(scenario, bound, static)
	}
	s.SetPlanning(false)
	_, err := s.LoadModuleOn(0, "fade", nil)
	must(err)
	report("complete load of fade")
	_, err = s.Mgr.LoadDifferential("blend", "") // assumes blank region
	must(err)
	report("differential blend assuming blank region (region held fade)")
	_, err = s.LoadModuleOn(0, "blend", nil)
	must(err)
	report("recovery: complete load of blend")
	_, err = s.Mgr.LoadDifferential("fade", "blend")
	must(err)
	report("differential fade assuming blend (correct assumption)")
	_, err = s.Mgr.LoadNaive("brightness")
	must(err)
	report("naive assembly (zeros outside the region band)")
	return t
}

// ThroughputTable renders scheduler statistics as table S1: per-module
// request counts, bitstream-cache hits and misses, the simulated-time split
// between reconfiguration and work, and p50/p95/p99 service latency. The
// module rows fold the per-request results; the total row and the busy-time
// notes come from st. Raw() carries the overall cache hit rate followed by
// each slot's simulated busy time in femtoseconds.
func ThroughputTable(st sched.Stats, results []sched.Result) *Table {
	t := &Table{ID: "S1", Title: "Scheduler throughput and bitstream-cache behaviour",
		Columns: []string{"module", "requests", "hits", "misses", "diff", "cmpl", "errors",
			"config time", "work time", "avg latency", "bytes", "p50", "p95", "p99"}}
	type moduleRow struct {
		requests, hits, misses, diffs, completes, errors, bytes uint64
		config, work                                            sim.Time
	}
	rows := make(map[string]*moduleRow)
	lats := make(map[string][]sim.Time)
	for _, r := range results {
		m := rows[r.Module]
		if m == nil {
			m = &moduleRow{}
			rows[r.Module] = m
		}
		m.requests++
		if r.Err != nil {
			m.errors++
		}
		if r.Member < 0 {
			continue // submit-rejected: never occupied a slot
		}
		if r.Report.CacheHit {
			m.hits++
		} else {
			m.misses++
		}
		switch r.Report.Kind {
		case plan.StreamDifferential:
			m.diffs++
		case plan.StreamComplete:
			m.completes++
		}
		m.config += r.Report.Config
		m.work += r.Report.Work
		m.bytes += uint64(r.Report.BytesStreamed)
		lats[r.Module] = append(lats[r.Module], r.Latency())
		lats[""] = append(lats[""], r.Latency())
	}
	pcts := func(mod string) []string {
		l := lats[mod]
		if len(l) == 0 {
			// Every request for the module was rejected at submit: no
			// latency was measured, matching the avg column's "-".
			return []string{"-", "-", "-"}
		}
		p := Percentiles(l, 0.50, 0.95, 0.99)
		return []string{fmtNS(float64(p[0])), fmtNS(float64(p[1])), fmtNS(float64(p[2]))}
	}
	mods := make([]string, 0, len(rows))
	for m := range rows {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	// Averages are over executed requests (hits+misses): submit-rejected
	// requests never occupy a slot, while an errored execution still
	// paid its configuration and partial work.
	for _, mod := range mods {
		m := rows[mod]
		avg := "-"
		if n := m.hits + m.misses; n > 0 {
			avg = fmtNS(float64(m.config+m.work) / float64(n))
		}
		row := []string{mod, fmt.Sprint(m.requests), fmt.Sprint(m.hits), fmt.Sprint(m.misses),
			fmt.Sprint(m.diffs), fmt.Sprint(m.completes),
			fmt.Sprint(m.errors), fmtNS(float64(m.config)), fmtNS(float64(m.work)), avg,
			fmt.Sprint(m.bytes)}
		t.AddRow(append(row, pcts(mod)...)...)
	}
	avg := "-"
	if n := st.Hits + st.Misses; n > 0 {
		avg = fmtNS(float64(st.Config+st.Work) / float64(n))
	}
	total := []string{"total", fmt.Sprint(st.Done), fmt.Sprint(st.Hits), fmt.Sprint(st.Misses),
		fmt.Sprint(st.DiffLoads), fmt.Sprint(st.CompleteLoads),
		fmt.Sprint(st.Errors), fmtNS(float64(st.Config)), fmtNS(float64(st.Work)), avg,
		fmt.Sprint(st.BytesStreamed)}
	t.AddRow(append(total, pcts("")...)...)
	t.rawNS = append(t.rawNS, st.HitRate())
	for i, b := range st.BusyTime {
		label := fmt.Sprintf("member %d", i)
		if i < len(st.Slots) {
			label = fmt.Sprintf("member %d region %d", st.Slots[i].Member, st.Slots[i].Region)
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s simulated busy time: %s", label, fmtNS(float64(b))))
		t.rawNS = append(t.rawNS, float64(b))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("bitstream cache hit rate: %.1f%% (a hit skips the ICAP load entirely)", 100*st.HitRate()))
	return t
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// coldCache flushes a data range so every measured run starts with a cold
// cache — measurements are order-independent.
func coldCache(s *platform.System, addr uint32, n int) {
	s.CPU.FlushRange(addr, n)
}

// coldImage flushes the three image buffers.
func coldImage(s *platform.System, a tasks.ImageArgs) {
	s.CPU.FlushRange(a.SrcA, a.N)
	s.CPU.FlushRange(a.SrcB, a.N)
	s.CPU.FlushRange(a.Dst, a.N)
}
