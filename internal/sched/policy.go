package sched

import (
	"fmt"
	"sort"

	"repro/internal/plan"
)

// Candidate is one idle (member, region) slot a placement policy may pick
// for a request. The scheduler fills it under its lock from the slot's
// live state, including the stream the region's planner would issue for
// the requested module.
type Candidate struct {
	// Index identifies the slot within the scheduler.
	Index int
	// Member and Region name the slot: the pool member's ID and the
	// region index within it. Policies scoring (member, region) pairs can
	// tell two regions of one board from two boards.
	Member int
	Region int
	// Resident is the module currently configured on the slot's region.
	Resident string
	// LastUsed is the dispatch tick of the slot's most recent
	// assignment; smaller means less recently used.
	LastUsed uint64
	// Plan is the stream the region would issue to host the module
	// (StreamNone when the module is already resident). Zero-valued when
	// planning failed — treated as a worst-case complete stream.
	Plan plan.Plan
	// PlanOK reports whether Plan is valid.
	PlanOK bool
	// Speculating marks a slot with a speculative load in flight toward
	// Resident (the predicted module). Dispatching another module there
	// aborts the stream; the scheduler leaves Plan unset, so cost-aware
	// policies prefer a quiet slot when one exists.
	Speculating bool
	// GroupMate marks a slot whose member already received an assignment
	// earlier in the current dispatch round. In DMA mode a miss placed
	// there opens its port window alongside the sibling's, so the two
	// configurations overlap in simulated time.
	GroupMate bool
}

// Policy chooses which idle slot hosts a request on a bitstream-cache
// miss; the scheduler dispatches cache hits (an idle slot with the
// module resident) directly without consulting the policy. Pick is called
// with a non-empty candidate slice (every entry idle and supporting the
// module) and returns an index INTO the slice. Implementations must be
// deterministic functions of the candidates, and must not retain cands:
// the scheduler reuses its backing array for the next request.
type Policy interface {
	Name() string
	Pick(module string, cands []Candidate) int
}

// lruPolicy reconfigures the least-recently-dispatched idle member — the
// PR 1 baseline. A member with the module already resident always wins.
type lruPolicy struct{}

func (lruPolicy) Name() string { return "lru" }

func (lruPolicy) Pick(module string, cands []Candidate) int {
	best := 0
	for i, c := range cands {
		if c.Resident == module {
			return i
		}
		if c.LastUsed < cands[best].LastUsed {
			best = i
		}
	}
	return best
}

// minCostPolicy picks the idle member whose resident module minimizes the
// planned configuration cost of the transition — the cost-aware placement
// the differential planner enables: members whose resident state makes the
// (resident → wanted) differential small are preferred, so the pool pays
// the cheapest reconfigurations the workload allows. Ties (including
// equal-size complete streams) fall back to LRU order.
type minCostPolicy struct{}

func (minCostPolicy) Name() string { return "mincost" }

// NeedsPlan tells the scheduler to fill Candidate.Plan — plan-unaware
// policies (lru) skip the per-member PlanFor calls entirely.
func (minCostPolicy) NeedsPlan() bool { return true }

func (minCostPolicy) Pick(module string, cands []Candidate) int {
	best := 0
	for i, c := range cands {
		if c.Resident == module {
			return i
		}
		cb, bb := planBytes(c), planBytes(cands[best])
		if cb < bb || (cb == bb && c.LastUsed < cands[best].LastUsed) {
			best = i
		}
	}
	return best
}

// planBytes is a candidate's planned stream size, with an unplannable
// member costed as worse than any real stream.
func planBytes(c Candidate) int {
	if !c.PlanOK {
		return int(^uint(0) >> 1)
	}
	return c.Plan.Bytes
}

// gangPolicy co-locates the misses of one dispatch round: a slot whose
// member already received an assignment this round wins, so DMA mode can
// overlap the two streams' port windows on that member. A member with the
// module resident still wins outright (the overlap never beats streaming
// nothing), and sizing is unavailable for group mates anyway — the sibling
// assignment makes the member non-quiet, so Plan stays unset and the
// choice among mates falls back to LRU order. With no mate in the round
// the policy is exactly mincost.
type gangPolicy struct{}

func (gangPolicy) Name() string { return "gang" }

// NeedsPlan tells the scheduler to fill Candidate.Plan for the
// mincost fallback.
func (gangPolicy) NeedsPlan() bool { return true }

func (gangPolicy) Pick(module string, cands []Candidate) int {
	best := -1
	for i, c := range cands {
		if c.Resident == module {
			return i
		}
		if !c.GroupMate {
			continue
		}
		if best < 0 || c.LastUsed < cands[best].LastUsed {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	return minCostPolicy{}.Pick(module, cands)
}

// policies registers the built-in placement policies by name.
var policies = map[string]Policy{
	"lru":     lruPolicy{},
	"mincost": minCostPolicy{},
	"gang":    gangPolicy{},
}

// PolicyNames lists the registered placement policies, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policies))
	for n := range policies {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PolicyByName resolves a placement policy ("" means lru).
func PolicyByName(name string) (Policy, error) {
	if name == "" {
		return policies["lru"], nil
	}
	p, ok := policies[name]
	if !ok {
		return nil, fmt.Errorf("sched: unknown placement policy %q (have %v)", name, PolicyNames())
	}
	return p, nil
}
