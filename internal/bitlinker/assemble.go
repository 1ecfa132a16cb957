package bitlinker

import (
	"fmt"
	"slices"

	"repro/internal/bitstream"
	"repro/internal/busmacro"
	"repro/internal/fabric"
)

// Placed is a component plus its placement inside the region (CLB offsets
// relative to the region origin).
type Placed struct {
	C      *Component
	ColOff int
	RowOff int
}

// Assembler produces partial configurations for one dynamic region. It keeps
// the static design baseline (the frames of the initial full configuration),
// which it needs to rebuild full-height frames without disturbing the static
// circuits above and below the region.
type Assembler struct {
	dev      *fabric.Device
	region   fabric.Region
	baseline *fabric.ConfigMemory
	dock     *busmacro.Macro
}

// New returns an assembler for the region. baseline must hold the static
// design's configuration and not change afterwards, since the images the
// assembler builds share its frames; dock is the bus macro offered by the
// static side (nil if the region has no dock).
func New(dev *fabric.Device, region fabric.Region, baseline *fabric.ConfigMemory, dock *busmacro.Macro) (*Assembler, error) {
	if err := dev.ValidateRegion(region); err != nil {
		return nil, err
	}
	if baseline.Device() != dev {
		return nil, fmt.Errorf("bitlinker: baseline belongs to a different device")
	}
	if dock != nil {
		if err := dock.Validate(dev, region); err != nil {
			return nil, err
		}
	}
	return &Assembler{dev: dev, region: region, baseline: baseline, dock: dock}, nil
}

// Region returns the dynamic region the assembler configures.
func (a *Assembler) Region() fabric.Region { return a.region }

// Result is an assembled partial configuration.
type Result struct {
	Stream *bitstream.Stream
	// Frames is the number of configuration frames the stream writes.
	Frames int
	// RegionHash is the content hash the region will have after loading the
	// stream (used to register behavioural bindings).
	RegionHash uint64
}

// Assemble relocates and merges the placed components and emits a complete
// (non-differential) configuration of the whole region: every frame of every
// region column is written, so the result is correct regardless of the
// region's previous configuration.
func (a *Assembler) Assemble(placements ...Placed) (*Result, error) {
	if err := a.check(placements); err != nil {
		return nil, err
	}
	target := a.targetImage(placements)
	runs, frames := a.regionRuns(target)
	s, err := bitstream.Build(a.dev, runs)
	if err != nil {
		return nil, err
	}
	return &Result{Stream: s, Frames: frames, RegionHash: target.RegionHash(a.region)}, nil
}

// AssembleDifferential emits only the frames that differ from the assumed
// prior image (the paper's "differential" configurations, §2.2). The stream
// is smaller and loads faster, but yields a correct region configuration
// only when the region actually holds the assumed image at load time.
func (a *Assembler) AssembleDifferential(assumed *fabric.ConfigMemory, placements ...Placed) (*Result, error) {
	if err := a.check(placements); err != nil {
		return nil, err
	}
	if assumed.Device() != a.dev {
		return nil, fmt.Errorf("bitlinker: assumed image belongs to a different device")
	}
	target := a.targetImage(placements)
	var runs []bitstream.FrameRun
	var want, have []uint32
	frames, last := 0, -1 // last is the index of the last differing frame
	for _, run := range a.dev.Frames(a.region) {
		for i := run.Lo; i < run.Hi; i++ {
			far, _ := a.dev.FARAt(i)
			want, _ = target.AppendFrame(want[:0], far, 0, a.dev.FrameLen())
			have, _ = assumed.AppendFrame(have[:0], far, 0, a.dev.FrameLen())
			if slices.Equal(want, have) {
				continue
			}
			frames++
			if last >= 0 && i == last+1 {
				runs[len(runs)-1].Frames = append(runs[len(runs)-1].Frames, slices.Clone(want))
			} else {
				runs = append(runs, bitstream.FrameRun{Start: far, Frames: [][]uint32{slices.Clone(want)}})
			}
			last = i
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("bitlinker: differential configuration is empty (target equals assumed image)")
	}
	s, err := bitstream.Build(a.dev, runs)
	if err != nil {
		return nil, err
	}
	return &Result{Stream: s, Frames: frames, RegionHash: target.RegionHash(a.region)}, nil
}

// AssembleNaive emits a configuration of the region columns whose frames
// carry the component data in the band but ZEROS above and below it —
// the mistake a configuration assembly tool must avoid, since it destroys
// the static circuits sharing those full-height frames. It exists to
// demonstrate the hazard (ablation A2); production code must use Assemble.
func (a *Assembler) AssembleNaive(placements ...Placed) (*Result, error) {
	if err := a.check(placements); err != nil {
		return nil, err
	}
	blank := fabric.NewConfigMemory(a.dev)
	target := a.stampInto(blank, placements)
	runs, frames := a.regionRuns(target)
	s, err := bitstream.Build(a.dev, runs)
	if err != nil {
		return nil, err
	}
	return &Result{Stream: s, Frames: frames, RegionHash: target.RegionHash(a.region)}, nil
}

// check validates placements: footprint fit, overlap, dock alignment, BRAM
// budget, and macro compatibility.
func (a *Assembler) check(placements []Placed) error {
	if len(placements) == 0 {
		return fmt.Errorf("bitlinker: nothing to assemble")
	}
	r := a.region
	bram := 0
	occupied := make(map[[2]int]string)
	docked := 0
	for _, p := range placements {
		c := p.C
		if err := c.Validate(); err != nil {
			return err
		}
		if p.ColOff < 0 || p.RowOff < 0 || p.ColOff+c.W > r.W || p.RowOff+c.H > r.H {
			return fmt.Errorf("bitlinker: component %s at (%d,%d) exceeds region %s",
				c.Name, p.ColOff, p.RowOff, r.Name)
		}
		for col := p.ColOff; col < p.ColOff+c.W; col++ {
			for row := p.RowOff; row < p.RowOff+c.H; row++ {
				key := [2]int{col, row}
				if prev, ok := occupied[key]; ok {
					return fmt.Errorf("bitlinker: components %s and %s overlap at region CLB (%d,%d)",
						prev, c.Name, col, row)
				}
				occupied[key] = c.Name
			}
		}
		bram += c.Resources.BRAMs
		if c.Macro != nil {
			docked++
			if a.dock == nil {
				return fmt.Errorf("bitlinker: component %s needs a dock, region has none", c.Name)
			}
			if !busmacro.Compatible(c.Macro, a.dock) {
				return fmt.Errorf("bitlinker: component %s port contract %v does not match dock macro %v",
					c.Name, c.Macro, a.dock)
			}
			// The ports must land exactly on the dock macro LUT rows, and
			// the component must abut the dock edge of the region.
			if p.RowOff+c.PortRow0 != a.dock.Row0 {
				return fmt.Errorf("bitlinker: component %s ports land on region row %d, dock macro is at row %d",
					c.Name, p.RowOff+c.PortRow0, a.dock.Row0)
			}
			switch a.dock.Side {
			case busmacro.RightEdge:
				if p.ColOff+c.W != r.W {
					return fmt.Errorf("bitlinker: component %s must abut the region's right edge to reach the dock", c.Name)
				}
			case busmacro.LeftEdge:
				if p.ColOff != 0 {
					return fmt.Errorf("bitlinker: component %s must abut the region's left edge to reach the dock", c.Name)
				}
			}
		}
	}
	if docked > 1 {
		return fmt.Errorf("bitlinker: %d components claim the dock, at most one may", docked)
	}
	if bram > r.BRAMBudget {
		return fmt.Errorf("bitlinker: placements need %d BRAMs, region reserves %d", bram, r.BRAMBudget)
	}
	return nil
}

// targetImage builds the post-configuration image: the static baseline with
// the region band replaced by the assembled components (blank where no
// component is placed). It is an Overlay of the baseline, so only the
// region's frames are copied.
func (a *Assembler) targetImage(placements []Placed) *fabric.ConfigMemory {
	return a.stampInto(a.baseline.Overlay(), placements)
}

// Target returns the configuration image the placements would leave in the
// device: the static baseline with the region band holding the assembled
// components. Callers use it as the assumed-state input of differential
// assembly. It shares the baseline's frames outside the region, so the
// baseline must not change while the image is in use.
func (a *Assembler) Target(placements ...Placed) *fabric.ConfigMemory {
	return a.targetImage(placements)
}

// stampInto writes the region band of base: zeros everywhere in the band,
// then each component's frames at its placement, then deterministic BRAM
// content for enclosed BRAM columns.
func (a *Assembler) stampInto(base *fabric.ConfigMemory, placements []Placed) *fabric.ConfigMemory {
	r := a.region
	lo, hi := a.dev.RowWordRange(r.Row0, r.H)
	var frame []uint32
	for col := 0; col < r.W; col++ {
		for minor := 0; minor < fabric.FramesPerCLBColumn; minor++ {
			far := fabric.FAR{Block: fabric.BlockCLB, Major: r.Col0 + col, Minor: minor}
			frame, _ = base.AppendFrame(frame[:0], far, 0, a.dev.FrameLen())
			clear(frame[lo:hi])
			for _, p := range placements {
				if col < p.ColOff || col >= p.ColOff+p.C.W {
					continue
				}
				plo, phi := a.dev.RowWordRange(r.Row0+p.RowOff, p.C.H)
				copy(frame[plo:phi], p.C.CLBFrames[col-p.ColOff][minor])
			}
			if err := base.WriteFrame(far, frame); err != nil {
				panic(err) // addresses are constructed in range
			}
		}
	}
	for bi, bcol := range a.dev.BRAMColumns(r) {
		pos := a.dev.BRAMColPos[bcol]
		for minor := 0; minor < fabric.FramesPerBRAMColumn; minor++ {
			far := fabric.FAR{Block: fabric.BlockBRAM, Major: bcol, Minor: minor}
			frame, _ = base.AppendFrame(frame[:0], far, 0, a.dev.FrameLen())
			clear(frame[lo:hi])
			for _, p := range placements {
				if p.C.Resources.BRAMs == 0 {
					continue
				}
				// The component covers this BRAM column when both CLB
				// neighbours of the column lie inside its span.
				c0 := r.Col0 + p.ColOff
				if pos >= c0 && pos+1 < c0+p.C.W {
					for i := lo; i < hi; i++ {
						frame[i] = splitmix(p.C.BRAMSeed ^ uint64(bi)<<32 ^ uint64(minor)<<16 ^ uint64(i))
					}
				}
			}
			if err := base.WriteFrame(far, frame); err != nil {
				panic(err)
			}
		}
	}
	return base
}

// regionRuns converts the region's frames in the target image into frame
// runs for the stream builder, one per Frames run: all CLB columns (they
// are contiguous in frame address space), then each enclosed BRAM column.
func (a *Assembler) regionRuns(target *fabric.ConfigMemory) ([]bitstream.FrameRun, int) {
	var runs []bitstream.FrameRun
	total := 0
	for _, run := range a.dev.Frames(a.region) {
		fr := bitstream.FrameRun{Frames: make([][]uint32, 0, run.Len())}
		fr.Start, _ = a.dev.FARAt(run.Lo)
		for i := run.Lo; i < run.Hi; i++ {
			far, _ := a.dev.FARAt(i)
			f, _ := target.ReadFrame(far)
			fr.Frames = append(fr.Frames, f)
		}
		runs = append(runs, fr)
		total += run.Len()
	}
	return runs, total
}
