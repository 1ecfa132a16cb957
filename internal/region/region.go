// Package region models a device's reconfigurable floorplan as a set of
// independent dynamic areas. The paper fixes one dynamic area per device,
// but its sizing discussion (§2) implies a device can host several
// independently reconfigurable regions, each behind its own bus macro —
// the "two separate dynamic areas" §4.1 names as future work. A Floorplan
// is that generalization: N column-disjoint regions, each with its own
// dock macro and resident state, so reconfiguring one region can never
// touch a sibling's frames. The package holds floorplans only: which
// frames and frame words a region owns is fabric's answer
// (fabric.Device.Frames and Bands).
//
// Column-disjointness is the load-bearing rule. Virtex-II configuration
// frames span the full device height, so two regions sharing a CLB column
// would share frames: assembling a configuration for one would have to
// assume the other's current (dynamic, unknowable at assembly time)
// content — exactly the §2.2 stale-state hazard, now between regions.
// Validate therefore rejects floorplans whose regions, enclosed BRAM
// columns, or dock-macro boundary columns overlap in any column, so the
// Frames runs of sibling areas never intersect.
package region

import (
	"fmt"

	"repro/internal/busmacro"
	"repro/internal/fabric"
)

// Area is one dynamic region of a floorplan together with the bus macro
// that docks it to the static design.
type Area struct {
	R     fabric.Region
	Macro *busmacro.Macro
}

// DockCol returns the device column holding the static side of the area's
// bus macro.
func (a Area) DockCol() int {
	if a.Macro.Side == busmacro.LeftEdge {
		return a.R.Col0 - 1
	}
	return a.R.Col0 + a.R.W
}

// Floorplan is a device's set of dynamic areas.
type Floorplan struct {
	Name  string
	Areas []Area
}

// Regions returns the floorplan's regions in area order.
func (f Floorplan) Regions() []fabric.Region {
	out := make([]fabric.Region, len(f.Areas))
	for i, a := range f.Areas {
		out[i] = a.R
	}
	return out
}

// Validate checks every area individually (device fit, hard blocks, BRAM
// budget, macro placement) and then the floorplan-wide rules: no two areas
// may share a CLB column or an enclosed BRAM column, and no area's dock
// column may fall inside another area — the static side of a bus macro
// must stay static.
func (f Floorplan) Validate(dev *fabric.Device) error {
	if len(f.Areas) == 0 {
		return fmt.Errorf("region: floorplan %s has no areas", f.Name)
	}
	for _, a := range f.Areas {
		if err := dev.ValidateRegion(a.R); err != nil {
			return err
		}
		if a.Macro == nil {
			return fmt.Errorf("region: area %s has no dock macro", a.R.Name)
		}
		if err := a.Macro.Validate(dev, a.R); err != nil {
			return err
		}
	}
	owner := make(map[int]string, dev.Cols)
	for _, a := range f.Areas {
		for c := a.R.Col0; c < a.R.Col0+a.R.W; c++ {
			if prev, taken := owner[c]; taken {
				return fmt.Errorf("region: areas %s and %s share CLB column %d (full-height frames would alias)",
					prev, a.R.Name, c)
			}
			owner[c] = a.R.Name
		}
	}
	for _, a := range f.Areas {
		if prev, taken := owner[a.DockCol()]; taken && prev != a.R.Name {
			return fmt.Errorf("region: dock column %d of %s lies inside area %s",
				a.DockCol(), a.R.Name, prev)
		}
		if owner[a.DockCol()] == a.R.Name {
			return fmt.Errorf("region: dock column %d of %s lies inside its own area", a.DockCol(), a.R.Name)
		}
	}
	return nil
}

// Single returns the one-area floorplan of the paper's fixed dynamic area
// — the degenerate case every pre-multi-region configuration maps to.
func Single(name string, r fabric.Region, m *busmacro.Macro) Floorplan {
	return Floorplan{Name: name, Areas: []Area{{R: r, Macro: m}}}
}

// Single32 is the 32-bit system's paper floorplan (§3.1).
func Single32() Floorplan {
	return Single("single32", fabric.DynamicRegion32(), busmacro.Dock32())
}

// Single64 is the 64-bit system's paper floorplan (§4.1).
func Single64() Floorplan {
	return Single("single64", fabric.DynamicRegion64(), busmacro.Dock64())
}

// Split divides a base area into n equal-width column-disjoint areas, each
// docked by its own copy of the base macro. One static gap column between
// consecutive parts hosts the left neighbour's (RightEdge) or the right
// neighbour's (LeftEdge) macro boundary, so every part keeps a static dock
// column; leftover columns (when the base width minus gaps is not
// divisible by n) return to the static design. n = 1 returns the base area
// unchanged — the single-region floorplan stays bit-identical.
func Split(base Area, n int) ([]Area, error) {
	if n < 1 {
		return nil, fmt.Errorf("region: cannot split %s into %d areas", base.R.Name, n)
	}
	if n == 1 {
		return []Area{base}, nil
	}
	w := (base.R.W - (n - 1)) / n
	if w < 1 {
		return nil, fmt.Errorf("region: area %s (%d columns wide) cannot host %d docked regions",
			base.R.Name, base.R.W, n)
	}
	out := make([]Area, n)
	for i := 0; i < n; i++ {
		r := base.R
		r.Name = fmt.Sprintf("%s.%c", base.R.Name, 'a'+i)
		r.Col0 = base.R.Col0 + i*(w+1)
		r.W = w
		out[i] = Area{R: r, Macro: base.Macro}
	}
	return out, nil
}

// SplitN builds the n-region floorplan of a paper default: the base
// dynamic area divided into n equal column bands. BRAM budgets are
// recomputed per part (a part encloses only the BRAM columns inside its
// band, capped by the base area's reservation).
func SplitN(base Floorplan, dev *fabric.Device, n int) (Floorplan, error) {
	if len(base.Areas) != 1 {
		return Floorplan{}, fmt.Errorf("region: SplitN wants a single-area base, got %d areas", len(base.Areas))
	}
	parts, err := Split(base.Areas[0], n)
	if err != nil {
		return Floorplan{}, err
	}
	if n > 1 {
		for i := range parts {
			budget := dev.BRAMsIntersecting(parts[i].R)
			if budget > base.Areas[0].R.BRAMBudget {
				budget = base.Areas[0].R.BRAMBudget
			}
			parts[i].R.BRAMBudget = budget
		}
	}
	fp := Floorplan{Name: fmt.Sprintf("%s/x%d", base.Name, n), Areas: parts}
	if err := fp.Validate(dev); err != nil {
		return Floorplan{}, err
	}
	return fp, nil
}

// Default returns the paper floorplan of a system kind split into n
// regions: n = 1 is exactly the fixed dynamic area of §3.1 / §4.1.
func Default(is64 bool, n int) (Floorplan, error) {
	if is64 {
		return SplitN(Single64(), fabric.XC2VP30(), n)
	}
	return SplitN(Single32(), fabric.XC2VP7(), n)
}
