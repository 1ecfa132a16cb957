// Package fault generates and injects configuration-memory upset
// scenarios against a pool of simulated platforms. A scenario is a
// seeded, fully deterministic schedule of single-bit flips — "after the
// k-th request completes, flip bit b of word w of frame f in region r of
// member m". A campaign is generated from (preset, seed, n, pool), not
// stored: the same inputs always give the same schedule, so every drive
// regenerates its campaign where it runs it. Injection itself is
// delegated to platform.InjectFaultOn, which restricts flips to the
// region's own frame band: every scenario event is a recoverable region
// fault, never sticky static-design damage.
package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/pool"
)

// Event is one scheduled bit-flip. AfterDone is the request-completion
// count that triggers it: the event fires once at least that many
// requests have finished, modelling an upset arriving mid-workload.
// Frame and Word are span-local coordinates inside the target region's
// fault space (see platform.FaultSpaceOn).
type Event struct {
	AfterDone int
	Member    int
	Region    int
	Frame     int
	Word      int
	Bit       uint
}

// Scenario is a named fault schedule for one workload run. Rate is the
// per-request upset probability the schedule was drawn with. Events are
// ordered by AfterDone.
type Scenario struct {
	Name   string
	Rate   float64
	Events []Event
}

// Slot describes one injectable (member, region) target and the size of
// its fault space, in span-local frames and band words.
type Slot struct {
	Member int
	Region int
	Frames int
	Words  int
}

// PoolSlots enumerates every region of every member of the pool as an
// injection target.
func PoolSlots(p *pool.Pool) []Slot {
	var out []Slot
	for _, m := range p.Members() {
		for ri := 0; ri < m.Sys.NumRegions(); ri++ {
			frames, words := m.Sys.FaultSpaceOn(ri)
			out = append(out, Slot{Member: m.ID, Region: ri, Frames: frames, Words: words})
		}
	}
	return out
}

// Apply injects one event into the pool. The platform rejects
// coordinates outside the region's band, so an event never damages the
// static design.
func Apply(p *pool.Pool, e Event) error {
	members := p.Members()
	if e.Member < 0 || e.Member >= len(members) {
		return fmt.Errorf("fault: event targets member %d of %d", e.Member, len(members))
	}
	return members[e.Member].Sys.InjectFaultOn(e.Region, e.Frame, e.Word, e.Bit)
}

// Generate draws a uniform scenario: after each of the n request
// completions, with probability rate, one bit flips in a uniformly
// chosen slot, frame, word, and bit. The same (seed, n, rate, slots)
// always yields the same schedule.
func Generate(name string, seed int64, n int, rate float64, slots []Slot) Scenario {
	sc := Scenario{Name: name, Rate: rate}
	rng := rand.New(rand.NewSource(seed))
	for done := 1; done <= n; done++ {
		if rng.Float64() >= rate {
			continue
		}
		sc.Events = append(sc.Events, draw(rng, done, slots))
	}
	return sc
}

func draw(rng *rand.Rand, done int, slots []Slot) Event {
	s := slots[rng.Intn(len(slots))]
	return Event{
		AfterDone: done,
		Member:    s.Member,
		Region:    s.Region,
		Frame:     rng.Intn(s.Frames),
		Word:      rng.Intn(s.Words),
		Bit:       uint(rng.Intn(32)),
	}
}

// Rates is the upset-probability sweep the S7 availability table reports.
var Rates = []float64{0, 0.05, 0.15, 0.3}

// Campaign expands a named preset into its scenarios:
//
//	sweep   — one uniform scenario per rate in Rates ("rate-0", "rate-0.05", ...)
//	uniform — a single uniform scenario at rate 0.15
func Campaign(preset string, seed int64, n int, slots []Slot) ([]Scenario, error) {
	switch preset {
	case "sweep":
		out := make([]Scenario, 0, len(Rates))
		for i, rate := range Rates {
			out = append(out, Generate(fmt.Sprintf("rate-%g", rate), seed+int64(i), n, rate, slots))
		}
		return out, nil
	case "uniform":
		return []Scenario{Generate("uniform", seed, n, 0.15, slots)}, nil
	}
	return nil, fmt.Errorf("fault: unknown campaign %q (want sweep or uniform)", preset)
}

// Cursor walks a scenario's events in completion order.
type Cursor struct {
	events []Event
	next   int
}

// Cursor returns a walker over the scenario's events.
func (sc Scenario) Cursor() *Cursor { return &Cursor{events: sc.Events} }

// Due returns the events triggered by reaching the given completion
// count, advancing past them. Events fire at most once.
func (c *Cursor) Due(done int) []Event {
	start := c.next
	for c.next < len(c.events) && c.events[c.next].AfterDone <= done {
		c.next++
	}
	return c.events[start:c.next]
}
