// Package trace is the deterministic event spine of the simulator: an
// allocation-light span/event recorder keyed exclusively to the simulated
// clock (the members' sim.Kernel timelines — never host time). Because
// every timestamp is simulated, a traced run is byte-reproducible: two
// identical drives emit identical event sets, and the Chrome exporter
// sorts them under a total order, so the rendered JSON is byte-identical
// too. That determinism is what lets sojourn percentiles graduate from
// informational columns to gated SLOs.
//
// A nil *Tracer is a valid no-op recorder. The scheduler builds every
// event whether or not a tracer is set, because its counters are folds of
// the same events; with tracing off an event is folded and dropped, which
// allocates nothing (pinned by the sched tests).
package trace

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/sim"
)

// Kind classifies one event. The taxonomy follows a request's life and the
// paper's cost split: where reconfiguration time goes (config transfer,
// overlap, compute) and what the control plane did around it (dispatch,
// steal, plan, hazard verdict, prefetch, scrub, quarantine, repair).
// Every scheduler counter is a fold of these events (sched.Stats.fold), so
// each kind's doc names the fields that fold reads.
type Kind uint8

const (
	// KindSubmit: a request entered a shard queue (scheduler-level).
	KindSubmit Kind = iota
	// KindDispatch: a request was placed on a (member, region) slot
	// (Arg = batch size riding the dispatch).
	KindDispatch
	// KindSteal: an idle shard stole queued requests from a victim
	// (scheduler-level; Arg = requests moved).
	KindSteal
	// KindConfig: visible configuration transfer on a slot (span; Bytes =
	// the request's streamed bytes).
	KindConfig
	// KindOverlap: configuration time hidden behind dispatch/work/sibling
	// loads on the DMA path (span ending where the visible wait begins;
	// Bytes = the request's streamed bytes).
	KindOverlap
	// KindCompute: the placed module's execution on the fabric (span).
	KindCompute
	// KindComplete: a request finished (instant at the end of its service;
	// Arg = sojourn fs, Bytes = streamed bytes, Stream/Hit/DMA/Err = its
	// outcome). A request rejected at submit completes at its arrival on
	// the scheduler track (Member -1) with Err set.
	KindComplete
	// KindPlan: the planner chose a stream kind for a transition (Bytes =
	// the planned stream's size).
	KindPlan
	// KindHazard: the §2.2 gate refused a stale plan.
	KindHazard
	// KindDemote: a region's resident state lost authority (Name = reason).
	KindDemote
	// KindPrefetchLaunch: a speculative load was launched on an idle slot.
	KindPrefetchLaunch
	// KindPrefetchConfig: the end of one speculative load — a span of its
	// port time, an instant when nothing streamed (Bytes = bytes streamed;
	// Err set when the stream was aborted or failed, its bytes then waste).
	KindPrefetchConfig
	// KindPrefetchHit: a completed speculative load was consumed by a
	// real request (instant; Bytes = prefetched bytes consumed, Arg = the
	// hidden stream time in fs).
	KindPrefetchHit
	// KindPrefetchWaste: completed speculative bytes that can no longer
	// be consumed — overwritten by a real load, quarantined with their
	// region, or outrun by their abort (instant; Bytes = bytes wasted).
	KindPrefetchWaste
	// KindScrub: one readback scrub of a region (Arg = 1 when the
	// pass detected corruption).
	KindScrub
	// KindQuarantine: a faulted slot was pulled from dispatch.
	KindQuarantine
	// KindRequeue: a dispatch scrub bounced a batch off its quarantined
	// slot back to the queue head (Arg = requests bounced).
	KindRequeue
	// KindRepair: the healing complete reload of a quarantined slot (span;
	// Bytes = bytes streamed). A blank region's repair streams nothing and
	// is an instant.
	KindRepair
	// KindDMAWindow: a dock DMA engine's port window (span; Bytes = wire
	// bytes, Name = "compressed" when the decoder front-end was armed).
	KindDMAWindow
)

var kindNames = [...]string{
	"submit", "dispatch", "steal", "config", "overlap", "compute",
	"complete", "plan", "hazard", "demote", "prefetch-launch",
	"prefetch-config", "prefetch-hit", "prefetch-waste", "scrub",
	"quarantine", "requeue", "repair", "dma-window",
}

// String returns the kind as a short stable label.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one trace record. Spans carry Dur > 0; instants carry Dur == 0.
// Member/Region place the event on a slot track; -1 means scheduler-level
// (no slot yet). Name is the module or reason, Bytes the configuration
// bytes the event moved and Arg the kind's other scalar (latency, batch
// size, hidden time, requests moved). A complete event also carries the
// request's outcome: Stream holds its plan.StreamKind (a number here, so
// this package need not import plan), Hit a bitstream-cache hit, DMA a
// load through a dock engine, and Err a failed request; Err also marks an
// aborted speculative stream.
type Event struct {
	Ts     sim.Time
	Dur    sim.Time
	Kind   Kind
	Stream uint8
	Hit    bool
	DMA    bool
	Err    bool
	Member int32
	Region int32
	ID     uint64
	Name   string
	Arg    int64
	Bytes  int64
}

// Tracer buffers events under a mutex. The zero value is ready to use; a
// nil *Tracer is a valid recorder whose Emit is a no-op, so call sites
// can hold one pointer for both modes.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	sink   func(Event)
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// SetSink installs a callback invoked under the tracer lock for every
// emitted event — the metrics registry feeds from here.
func (t *Tracer) SetSink(fn func(Event)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sink = fn
	t.mu.Unlock()
}

// Emit records one event. Safe for concurrent use; a nil receiver drops
// the event.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, e)
	if t.sink != nil {
		t.sink(e)
	}
	t.mu.Unlock()
}

// Len reports how many events have been recorded.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Reset drops all recorded events.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
}

// Events returns a sorted copy of the recorded events. The order is a
// total order over every field, so two runs that emitted the same event
// set return the same slice regardless of goroutine interleaving — the
// foundation of byte-identical exports.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// less is the total order: simulated time first, then slot, then the
// remaining fields so no two distinct events ever compare equal.
func less(a, b Event) bool {
	if a.Ts != b.Ts {
		return a.Ts < b.Ts
	}
	if a.Member != b.Member {
		return a.Member < b.Member
	}
	if a.Region != b.Region {
		return a.Region < b.Region
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Dur != b.Dur {
		return a.Dur < b.Dur
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.Arg != b.Arg {
		return a.Arg < b.Arg
	}
	if a.Bytes != b.Bytes {
		return a.Bytes < b.Bytes
	}
	if a.Stream != b.Stream {
		return a.Stream < b.Stream
	}
	if a.Hit != b.Hit {
		return !a.Hit
	}
	if a.DMA != b.DMA {
		return !a.DMA
	}
	return !a.Err && b.Err
}

// SumDur totals the durations of one event kind on one (member, region)
// slot — the conservation probe: per-slot config spans must sum exactly
// to the run's Stats config-time accounting.
func SumDur(events []Event, k Kind, member, region int32) sim.Time {
	var total sim.Time
	for _, e := range events {
		if e.Kind == k && e.Member == member && e.Region == region {
			total += e.Dur
		}
	}
	return total
}
