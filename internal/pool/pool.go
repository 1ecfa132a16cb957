// Package pool manages a farm of independent simulated platforms — the
// "many boards" a production deployment would rack up to serve concurrent
// reconfiguration workloads. Each member is one platform.System with its
// own simulated timeline; members are built concurrently (boot is pure
// setup) and are driven concurrently through the system's serialized
// ExecuteOn surface. Placement policy lives above the pool, in sched.
package pool

import (
	"fmt"
	"sync"

	"repro/internal/platform"
	"repro/internal/region"
)

// Config sizes the pool: how many 32-bit and 64-bit systems to build, and
// how many independently reconfigurable regions each member's dynamic area
// is split into (0 or 1 = the paper's fixed single-region floorplan).
// Members, when non-empty, replaces the counts: each spec builds one
// member with an explicit floorplan — how benchmark pools compare region
// granularities at equal total fabric — and Sys32, Sys64 and Regions must
// stay zero.
type Config struct {
	Sys32   int
	Sys64   int
	Regions int
	Members []MemberSpec
}

// MemberSpec describes one explicitly floorplanned member.
type MemberSpec struct {
	Is64      bool
	Floorplan region.Floorplan
}

// Member is one platform in the pool.
type Member struct {
	ID  int
	Sys *platform.System
}

// Pool is a fixed set of booted platforms.
type Pool struct {
	members []*Member
}

// New boots the configured mix of systems, in parallel. Member IDs are
// stable: 32-bit systems first, then 64-bit (or Members order). A negative
// board or region count is an error, and so are counts beside Members.
func New(cfg Config) (*Pool, error) {
	if cfg.Sys32 < 0 || cfg.Sys64 < 0 || cfg.Regions < 0 {
		return nil, fmt.Errorf("pool: negative board or region count (sys32=%d sys64=%d regions=%d)",
			cfg.Sys32, cfg.Sys64, cfg.Regions)
	}
	if len(cfg.Members) > 0 && cfg.Sys32+cfg.Sys64+cfg.Regions > 0 {
		return nil, fmt.Errorf("pool: Members builds every member itself, so sys32=%d sys64=%d regions=%d would go unused",
			cfg.Sys32, cfg.Sys64, cfg.Regions)
	}
	regions := max(cfg.Regions, 1)
	builders := make([]func() (*platform.System, error), 0, cfg.Sys32+cfg.Sys64+len(cfg.Members))
	for _, spec := range cfg.Members {
		builders = append(builders, func() (*platform.System, error) {
			return platform.NewSystem(spec.Is64, spec.Floorplan)
		})
	}
	for i := 0; i < cfg.Sys32; i++ {
		builders = append(builders, func() (*platform.System, error) { return platform.NewSys32N(regions) })
	}
	for i := 0; i < cfg.Sys64; i++ {
		builders = append(builders, func() (*platform.System, error) { return platform.NewSys64N(regions) })
	}
	n := len(builders)
	if n <= 0 {
		return nil, fmt.Errorf("pool: empty pool (sys32=%d sys64=%d)", cfg.Sys32, cfg.Sys64)
	}
	members := make([]*Member, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := builders[i]()
			if err != nil {
				errs[i] = err
				return
			}
			members[i] = &Member{ID: i, Sys: s}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &Pool{members: members}, nil
}

// Members returns the pool's platforms.
func (p *Pool) Members() []*Member { return p.members }

// Size returns the number of platforms.
func (p *Pool) Size() int { return len(p.members) }

// SetPlanning toggles the differential-stream planner on every member:
// off reproduces the complete-only baseline, on lets each member's load
// path pick the cheapest safe stream per transition.
func (p *Pool) SetPlanning(on bool) {
	for _, m := range p.members {
		m.Sys.SetPlanning(on)
	}
}

// SetCompression toggles the compressed stream kind on every member's
// planners. Off (the default) keeps plans byte-identical to the three-kind
// planner.
func (p *Pool) SetCompression(on bool) {
	for _, m := range p.members {
		m.Sys.SetCompression(on)
	}
}

// Partition splits the members into n round-robin groups — the shard-aware
// construction the sharded scheduler builds on. Members are dealt by ID
// (member i lands in group i mod n), so a mixed 32/64-bit pool spreads
// both fabric widths across every group, and a member's sibling regions
// always stay together (a member is never split — the scheduler's
// member-quiet and DMA gang invariants depend on one shard owning all of
// a board's slots). n is clamped to [1, Size()]; every group is non-empty.
func (p *Pool) Partition(n int) [][]*Member {
	if n < 1 {
		n = 1
	}
	if n > len(p.members) {
		n = len(p.members)
	}
	groups := make([][]*Member, n)
	for i, m := range p.members {
		groups[i%n] = append(groups[i%n], m)
	}
	return groups
}

// MemberState is a point-in-time view of one platform for reporting: its
// status, taken under the member's lock once.
type MemberState struct {
	ID     int
	System string
	platform.Status
}

// Snapshot reports every member's resident modules and reconfiguration
// statistics. Safe to call while the pool is being driven.
func (p *Pool) Snapshot() []MemberState {
	out := make([]MemberState, len(p.members))
	for i, m := range p.members {
		out[i] = MemberState{ID: m.ID, System: m.Sys.Name, Status: m.Sys.Status()}
	}
	return out
}

// Slots returns the pool's total count of dynamic regions — the pool-wide
// bitstream cache capacity.
func (p *Pool) Slots() int {
	n := 0
	for _, m := range p.members {
		n += m.Sys.NumRegions()
	}
	return n
}
