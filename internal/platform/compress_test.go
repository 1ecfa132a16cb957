package platform_test

import (
	"testing"

	"repro/internal/plan"
	. "repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tasks"
)

// TestCompressedLoadEndToEnd: with compression on, planned loads pick the
// compressed container, stream fewer bytes than the plain differential,
// and still bind a working core — the hazard gate and binding checks see
// the decoded frames, not the wire words.
func TestCompressedLoadEndToEnd(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	s.SetCompression(true)
	first, err := s.LoadModule("brightness")
	if err != nil {
		t.Fatal(err)
	}
	if first.Kind != plan.StreamCompressed {
		t.Fatalf("first load %+v, want a compressed stream", first)
	}
	db, _, err := s.Mgr.DifferentialSize("", "brightness")
	if err != nil {
		t.Fatal(err)
	}
	if first.Bytes >= db {
		t.Errorf("compressed load streamed %d B, plain differential is %d B", first.Bytes, db)
	}
	if s.Mgr.Current() != "brightness" || s.Mgr.Corrupted() {
		t.Fatalf("compressed load did not bind cleanly: current %q", s.Mgr.Current())
	}
	// A module-to-module swap decodes against the live region content (the
	// KEEP ops copy resident frames) and must still verify end-to-end.
	swap, err := s.LoadModule("blend")
	if err != nil {
		t.Fatal(err)
	}
	if swap.Kind != plan.StreamCompressed {
		t.Errorf("swap %+v, want a compressed stream", swap)
	}
	bl := tasks.BlendRun{Seed: 11, N: 256}
	if err := bl.Run(s); err != nil {
		t.Fatalf("blend after compressed swap: %v", err)
	}
	if n := s.Mgr.CompressedLoads(); n != 2 {
		t.Errorf("CompressedLoads = %d, want 2", n)
	}
}

// TestCompressedObserveUnskewed is the calibration regression: a compressed
// load must feed the planner's cost model its DECODED byte count. If the
// wire size were observed instead, the per-byte rate would read ~3x slower
// and every later differential estimate would be skewed by the same factor.
func TestCompressedObserveUnskewed(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	s.SetCompression(true)
	first, err := s.LoadModule("brightness")
	if err != nil {
		t.Fatal(err)
	}
	if first.Kind != plan.StreamCompressed {
		t.Fatalf("first load %+v, want compressed", first)
	}
	wire1, raw1, _, err := s.Mgr.CompressedSize("", "brightness")
	if err != nil {
		t.Fatal(err)
	}
	if wire1 != first.Bytes || raw1 <= wire1 {
		t.Fatalf("sizes: report %d B, memoized wire %d raw %d", first.Bytes, wire1, raw1)
	}
	// The first observation sets the rate exactly, so the next plan's
	// estimate is fully determined by what Observe was fed.
	p, err := s.PlanForOn(0, "blend")
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != plan.StreamCompressed || p.Raw <= 0 {
		t.Fatalf("plan %+v, want compressed with raw size", p)
	}
	perRaw := float64(first.Time) / float64(raw1)
	want := sim.Time(perRaw * float64(p.Raw))
	if diff := float64(p.Est-want) / float64(want); diff > 0.01 || diff < -0.01 {
		t.Errorf("Est = %v, want raw-calibrated %v (skewed wire-based would be ~%v)",
			p.Est, want, sim.Time(float64(first.Time)/float64(wire1)*float64(p.Raw)))
	}
}

// TestDMASiblingOverlap: two regions of one member Begin their loads on
// their own dock DMA engines; the port windows overlap in simulated time,
// so settling both costs max(d0, d1), not d0 + d1 — and the second
// settlement reports the overlapped part as hidden configuration time.
func TestDMASiblingOverlap(t *testing.T) {
	s, err := NewSys64N(2)
	if err != nil {
		t.Fatal(err)
	}
	start := s.Now()
	t0, err := s.BeginExecuteOn(0, "jenkins")
	if err != nil {
		t.Fatal(err)
	}
	t1, err := s.BeginExecuteOn(1, "fade")
	if err != nil {
		t.Fatal(err)
	}
	jk := tasks.JenkinsRun{Seed: 7, Len: 512, InitVal: 3}
	r0, err := s.FinishExecuteOn(t0, func() error { return jk.Run(s) })
	if err != nil {
		t.Fatalf("region 0 jenkins over DMA: %v (report %+v)", err, r0)
	}
	fd := tasks.FadeRun{Seed: 9, N: 512, F: 77}
	r1, err := s.FinishExecuteOn(t1, func() error { return fd.Run(s) })
	if err != nil {
		t.Fatalf("region 1 fade over DMA: %v (report %+v)", err, r1)
	}
	if !r0.DMA || !r1.DMA {
		t.Fatalf("reports not marked DMA: %+v / %+v", r0, r1)
	}
	if r1.ConfigHidden == 0 {
		t.Errorf("sibling port windows did not overlap: %+v", r1)
	}
	elapsed := s.Now() - start
	serialized := r0.Config + r0.ConfigHidden + r1.Config + r1.ConfigHidden + r0.Work + r1.Work
	if elapsed >= serialized {
		t.Errorf("no wall-clock win: elapsed %v >= serialized %v", elapsed, serialized)
	}
	if s.ResidentOn(0) != "jenkins" || s.ResidentOn(1) != "fade" {
		t.Fatalf("residents (%q, %q) after DMA loads", s.ResidentOn(0), s.ResidentOn(1))
	}
	// A repeat Begin on a warm region is a zero-window cache hit.
	th, err := s.BeginExecuteOn(0, "jenkins")
	if err != nil {
		t.Fatal(err)
	}
	rh, err := s.FinishExecuteOn(th, func() error { return jk.Run(s) })
	if err != nil {
		t.Fatal(err)
	}
	if !rh.CacheHit || rh.Config != 0 || rh.BytesStreamed != 0 {
		t.Errorf("warm DMA ticket %+v, want zero-stream cache hit", rh)
	}
}

// TestDMACompressedLoad: the compressed container rides the DMA engine —
// wire-word-bound, so its port window is shorter than the plain
// differential's would be — and the decoded frames still verify.
func TestDMACompressedLoad(t *testing.T) {
	s, err := NewSys64N(2)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCompression(true)
	tk, err := s.BeginExecuteOn(0, "brightness")
	if err != nil {
		t.Fatal(err)
	}
	if tk.Plan().Kind != plan.StreamCompressed {
		t.Fatalf("DMA plan %+v, want compressed", tk.Plan())
	}
	br := tasks.BrightnessRun{Seed: 5, N: 256, Delta: 40}
	r, err := s.FinishExecuteOn(tk, func() error { return br.Run(s) })
	if err != nil {
		t.Fatalf("brightness over compressed DMA: %v (report %+v)", err, r)
	}
	if !r.DMA || r.Kind != plan.StreamCompressed {
		t.Fatalf("report %+v, want compressed DMA load", r)
	}
	// Wire-bound window: the visible config time must undercut what the
	// plain differential would cost at 4 cycles per decoded word.
	if r.BytesStreamed*3 > tk.Plan().Raw {
		t.Errorf("wire %d B vs raw %d B: compression did not cut enough to matter", r.BytesStreamed, tk.Plan().Raw)
	}
	if s.Status().Corrupted {
		t.Fatal("static design corrupted by compressed DMA load")
	}
}
