package core

import (
	"errors"
	"testing"

	"repro/internal/hw"
	"repro/internal/plan"
)

// stopAfter returns a stop function that trips on its nth poll (1-based).
func stopAfter(n int) func() bool {
	calls := 0
	return func() bool {
		calls++
		return calls >= n
	}
}

func TestAbortableLoadCompletes(t *testing.T) {
	mgr, _, region, bound := rig(t)
	if err := register(mgr, testComponent("alpha", region), func() hw.Core { return &testCore{id: 1} }); err != nil {
		t.Fatal(err)
	}
	pl, err := plan.New(mgr).Plan("", true, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	// A stop function that never trips must behave exactly like LoadPlanned.
	elapsed, bytes, err := mgr.LoadPlannedAbortable(pl, func() bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if elapsed == 0 || bytes != pl.Bytes {
		t.Fatalf("elapsed=%v bytes=%d, want full stream of %d B", elapsed, bytes, pl.Bytes)
	}
	if mgr.Current() != "alpha" || bound().Read() != 1 {
		t.Fatal("alpha not bound after abortable load")
	}
	if _, ok := mgr.ResidentState(); !ok {
		t.Fatal("resident state not authoritative after completed load")
	}
}

func TestAbortBeforeStartTouchesNothing(t *testing.T) {
	mgr, _, region, _ := rig(t)
	if err := register(mgr, testComponent("alpha", region), func() hw.Core { return &testCore{id: 1} }); err != nil {
		t.Fatal(err)
	}
	pl, err := plan.New(mgr).Plan("", true, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	_, bytes, err := mgr.LoadPlannedAbortable(pl, func() bool { return true })
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if bytes != 0 {
		t.Fatalf("streamed %d B before an immediate abort", bytes)
	}
	if _, ok := mgr.ResidentState(); !ok {
		t.Fatal("an abort before the first word must not demote the resident state")
	}
	if c := mgr.Counters(); c.Loads != 0 || c.StreamedBytes != 0 {
		t.Fatalf("counters after clean abort: loads=%d bytes=%d, want 0/0", c.Loads, c.StreamedBytes)
	}
}

// TestAbortMidStreamIsSafe aborts a complete stream partway through and
// verifies the §2.2 safety argument: the tracked state is demoted, the
// planner refuses differentials against it, and a complete reload restores
// a verified binding without ever corrupting the static design.
func TestAbortMidStreamIsSafe(t *testing.T) {
	mgr, _, region, bound := rig(t)
	for i, name := range []string{"alpha", "beta"} {
		id := uint64(i + 1)
		if err := register(mgr, testComponent(name, region), func() hw.Core { return &testCore{id: id} }); err != nil {
			t.Fatal(err)
		}
	}
	pln := plan.New(mgr)
	if _, err := mgr.LoadPlanned(completePlan("alpha")); err != nil {
		t.Fatal(err)
	}

	pl, err := pln.Plan("alpha", true, "beta")
	if err != nil {
		t.Fatal(err)
	}
	_, bytes, err := mgr.LoadPlannedAbortable(pl, stopAfter(2))
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if bytes <= 0 || bytes >= pl.Bytes {
		t.Fatalf("aborted after %d B of a %d B stream, want a strict partial", bytes, pl.Bytes)
	}
	if n := mgr.Counters().AbortedLoads; n != 1 {
		t.Fatalf("AbortedLoads = %d, want 1", n)
	}
	if _, ok := mgr.ResidentState(); ok {
		t.Fatal("resident state still authoritative after a partial stream")
	}

	// The planner must now refuse differentials: only the complete stream
	// is safe against unknown region content.
	resident, authoritative := mgr.ResidentState()
	repl, err := pln.Plan(resident, authoritative, "beta")
	if err != nil {
		t.Fatal(err)
	}
	if repl.Kind != plan.StreamComplete {
		t.Fatalf("re-plan after abort chose %v, want complete", repl.Kind)
	}
	// And a stale differential plan is refused by the gate without ICAP
	// traffic (the §2.2 hazard gate, unchanged by the abortable path).
	if _, _, err := mgr.LoadPlannedAbortable(pl, nil); err == nil {
		t.Fatal("stale differential plan accepted after abort")
	}

	if _, err := mgr.LoadPlanned(repl); err != nil {
		t.Fatal(err)
	}
	if mgr.Current() != "beta" || bound().Read() != 2 {
		t.Fatal("beta not bound after recovery load")
	}
	if _, ok := mgr.ResidentState(); !ok {
		t.Fatal("resident state not authoritative after recovery")
	}
	if mgr.Corrupted() {
		t.Fatal("static design corrupted by abort/recovery")
	}
}
