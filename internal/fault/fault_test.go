package fault

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/pool"
)

func testSlots() []Slot {
	return []Slot{
		{Member: 0, Region: 0, Frames: 12, Words: 28},
		{Member: 0, Region: 1, Frames: 12, Words: 28},
		{Member: 1, Region: 0, Frames: 12, Words: 28},
	}
}

// TestGenerateDeterministicAndInBounds: the same (seed, n, rate, slots)
// yields the same schedule, the schedule is ordered by completion count,
// and every event stays inside its slot's fault space.
func TestGenerateDeterministicAndInBounds(t *testing.T) {
	slots := testSlots()
	a := Generate("u", 42, 200, 0.2, slots)
	b := Generate("u", 42, 200, 0.2, slots)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a.Events) == 0 {
		t.Fatal("rate 0.2 over 200 requests drew no events")
	}
	if c := Generate("u", 43, 200, 0.2, slots); reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical schedules")
	}
	last := 0
	for _, e := range a.Events {
		if e.AfterDone < last || e.AfterDone < 1 || e.AfterDone > 200 {
			t.Fatalf("event out of order or range: %+v after %d", e, last)
		}
		last = e.AfterDone
		if e.Frame < 0 || e.Frame >= 12 || e.Word < 0 || e.Word >= 28 || e.Bit > 31 {
			t.Fatalf("event outside fault space: %+v", e)
		}
	}
	if zero := Generate("z", 42, 200, 0, slots); len(zero.Events) != 0 {
		t.Fatalf("rate 0 drew %d events", len(zero.Events))
	}
}

// TestCampaignPresets: sweep yields one scenario per rate, covering rate
// zero; uniform yields one scenario; unknown presets are rejected.
func TestCampaignPresets(t *testing.T) {
	slots := testSlots()
	sweep, err := Campaign("sweep", 7, 100, slots)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != len(Rates) {
		t.Fatalf("sweep produced %d scenarios, want %d", len(sweep), len(Rates))
	}
	for i, sc := range sweep {
		if sc.Rate != Rates[i] || !strings.HasPrefix(sc.Name, "rate-") {
			t.Fatalf("sweep scenario %d = %q rate %g, want rate-%g", i, sc.Name, sc.Rate, Rates[i])
		}
	}
	if len(sweep[0].Events) != 0 {
		t.Fatal("rate-0 sweep scenario has events")
	}
	if scs, err := Campaign("uniform", 7, 100, slots); err != nil || len(scs) != 1 {
		t.Fatalf("Campaign(uniform) = %d scenarios, %v", len(scs), err)
	}
	if _, err := Campaign("meteor", 7, 100, slots); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestCursorFiresEachEventOnce: Due returns exactly the events at or
// before the completion count, in order, and never re-fires them.
func TestCursorFiresEachEventOnce(t *testing.T) {
	sc := Scenario{Events: []Event{
		{AfterDone: 2}, {AfterDone: 2}, {AfterDone: 5}, {AfterDone: 9},
	}}
	cur := sc.Cursor()
	if got := cur.Due(1); len(got) != 0 {
		t.Fatalf("Due(1) = %v", got)
	}
	if got := cur.Due(2); len(got) != 2 {
		t.Fatalf("Due(2) fired %d events, want 2", len(got))
	}
	if got := cur.Due(2); len(got) != 0 {
		t.Fatalf("Due(2) re-fired: %v", got)
	}
	if got := cur.Due(100); len(got) != 2 {
		t.Fatalf("Due(100) fired %d events, want the remaining 2", len(got))
	}
	if got := cur.Due(100); len(got) != 0 {
		t.Fatalf("cursor not exhausted: %v", got)
	}
}

// TestPoolSlotsAndApply: slots enumerate every (member, region) with a
// real fault space, Apply lands an injection, and out-of-range events
// are refused without touching the pool.
func TestPoolSlotsAndApply(t *testing.T) {
	p, err := pool.New(pool.Config{Sys64: 2, Regions: 2})
	if err != nil {
		t.Fatal(err)
	}
	slots := PoolSlots(p)
	if len(slots) != 4 {
		t.Fatalf("got %d slots, want 4", len(slots))
	}
	for _, s := range slots {
		if s.Frames <= 0 || s.Words <= 0 {
			t.Fatalf("slot %+v has empty fault space", s)
		}
	}
	e := Event{Member: 1, Region: 1, Frame: 0, Word: 0, Bit: 3}
	if err := Apply(p, e); err != nil {
		t.Fatal(err)
	}
	if got := p.Members()[1].Sys.Status().Regions[1].FaultsInjected; got != 1 {
		t.Fatalf("member 1 region 1 reports %d injections, want 1", got)
	}
	if err := Apply(p, Event{Member: 9}); err == nil {
		t.Fatal("event for missing member accepted")
	}
	if err := Apply(p, Event{Member: 0, Region: 0, Frame: 1 << 20}); err == nil {
		t.Fatal("out-of-band frame accepted")
	}
	for _, r := range p.Members()[0].Sys.Status().Regions {
		if r.FaultsInjected != 0 {
			t.Fatalf("rejected injections counted on member 0 region %s: %d", r.Region, r.FaultsInjected)
		}
	}
}
