// Package bitlinker implements the configuration assembly tool the paper's
// experiments rely on (reference [12], "BitLinker"): it relocates the
// configurations of separately implemented components into a dynamic region,
// merges them with the static design's frames so that circuits above and
// below the region are not disturbed, verifies bus-macro port compatibility,
// and emits *complete* (non-differential) partial bitstreams that configure
// the region correctly regardless of its previous contents — at the price of
// a larger stream and a longer configuration time (§2.2).
package bitlinker

import (
	"fmt"

	"repro/internal/busmacro"
	"repro/internal/fabric"
)

// Component is the relocatable configuration of one dynamic module, as
// produced by the component design flow: frame data covering its own
// footprint (relative coordinates), its resource needs, and the bus-macro
// contract it was implemented against.
type Component struct {
	Name    string
	Version string
	// W, H is the CLB footprint.
	W, H int
	// Resources is the synthesis result (must fit the footprint).
	Resources fabric.Resources
	// Macro is the port contract, nil for components with no boundary I/O.
	Macro *busmacro.Macro
	// PortRow0 is the component-relative row where the macro ports sit.
	PortRow0 int
	// CLBFrames holds the configuration band: CLBFrames[c][m] is the
	// frame-band data (fabric.WordsPerRow*H words) of relative column c,
	// minor m.
	CLBFrames [][][]uint32
	// BRAMSeed determinizes the content stamped into BRAM columns the
	// component encloses (block RAM initialization).
	BRAMSeed uint64
}

// Validate checks internal consistency of a component.
func (c *Component) Validate() error {
	if c.W <= 0 || c.H <= 0 {
		return fmt.Errorf("bitlinker: component %s has empty footprint", c.Name)
	}
	if len(c.CLBFrames) != c.W {
		return fmt.Errorf("bitlinker: component %s has %d frame columns, footprint is %d wide",
			c.Name, len(c.CLBFrames), c.W)
	}
	for col := range c.CLBFrames {
		if len(c.CLBFrames[col]) != fabric.FramesPerCLBColumn {
			return fmt.Errorf("bitlinker: component %s column %d has %d minors, want %d",
				c.Name, col, len(c.CLBFrames[col]), fabric.FramesPerCLBColumn)
		}
		for m := range c.CLBFrames[col] {
			if len(c.CLBFrames[col][m]) != fabric.WordsPerRow*c.H {
				return fmt.Errorf("bitlinker: component %s frame (%d,%d) has %d words, want %d",
					c.Name, col, m, len(c.CLBFrames[col][m]), fabric.WordsPerRow*c.H)
			}
		}
	}
	if got, max := c.Resources.Slices, 4*c.W*c.H; got > max {
		return fmt.Errorf("bitlinker: component %s uses %d slices, footprint holds %d", c.Name, got, max)
	}
	if c.Macro != nil && (c.PortRow0 < 0 || c.PortRow0+c.Macro.RowsNeeded() > c.H) {
		return fmt.Errorf("bitlinker: component %s port rows exceed footprint", c.Name)
	}
	return nil
}

// SynthesizeFrames generates the deterministic configuration band for a
// component footprint. It stands in for the vendor implementation flow: the
// content is a pure function of (name, version, footprint), so the same
// component always produces the same frames — which is what lets the
// platform bind configuration contents back to behavioural models.
func SynthesizeFrames(name, version string, w, h int) [][][]uint32 {
	frames := make([][][]uint32, w)
	seed := stringSeed(name + "/" + version)
	for c := range frames {
		frames[c] = make([][]uint32, fabric.FramesPerCLBColumn)
		for m := range frames[c] {
			f := make([]uint32, fabric.WordsPerRow*h)
			for i := range f {
				f[i] = splitmix(seed ^ uint64(c)<<40 ^ uint64(m)<<20 ^ uint64(i))
			}
			frames[c][m] = f
		}
	}
	return frames
}

// stringSeed hashes a string to a 64-bit seed (FNV-1a).
func stringSeed(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix is the SplitMix64 mixer: a deterministic word generator.
func splitmix(x uint64) uint32 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return uint32(x ^ (x >> 31))
}
