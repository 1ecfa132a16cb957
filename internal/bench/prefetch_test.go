package bench

import (
	"strings"
	"testing"
)

// TestPrefetchHidesVisibleConfigTime is the S3 acceptance check: on the
// seeded paced workload, prefetching with the markov predictor must hide
// at least 30% of the visible configuration time the PR 2 configuration
// (mincost placement + differential planner, no prefetch) still pays —
// with every request verifying and no member corrupted (Drive fails on
// either, so a hazard-gate violation is a hard test failure).
func TestPrefetchHidesVisibleConfigTime(t *testing.T) {
	s := PrefetchSuite(DefaultWorkload())
	base, err := Drive(s.Workload, s.Cases[0]) // mincost+noprefetch
	if err != nil {
		t.Fatal(err)
	}
	// The frequency predictor is the stable choice on this mix: the seeded
	// workload draws tasks i.i.d., so there is no transition structure for
	// markov to exploit (it shrinks toward the same frequency estimates,
	// with residual sampling noise).
	pref, err := Drive(s.Workload, s.Cases[1]) // mincost+prefetch-freq
	if err != nil {
		t.Fatal(err)
	}
	bs, ps := base.Stats, pref.Stats
	if bs.Done != uint64(s.Workload.N) || ps.Done != uint64(s.Workload.N) {
		t.Fatalf("incomplete runs: base %d, prefetch %d of %d", bs.Done, ps.Done, s.Workload.N)
	}
	if bs.Config == 0 {
		t.Fatal("baseline has no visible configuration time to hide")
	}
	hidden := 1 - float64(ps.Config)/float64(bs.Config)
	t.Logf("visible config: baseline %v, prefetch %v (%.0f%% hidden); prefetch hits %d, aborted %d, wasted %d B",
		bs.Config, ps.Config, 100*hidden, ps.PrefetchHits, ps.PrefetchAborted, ps.PrefetchWasted)
	if hidden < 0.30 {
		t.Errorf("prefetch hides %.1f%% of visible configuration time, want >= 30%%", 100*hidden)
	}
	if ps.PrefetchHits == 0 || ps.HiddenConfig == 0 {
		t.Errorf("no prefetch hits banked: %+v", ps)
	}
}

// TestPrefetchTableShape checks the S3 content beyond the shared suite
// shape: the no-prefetch baseline leads, every prefetch row gets a hiding
// note against it, and the rows record the paced window and predictor.
func TestPrefetchTableShape(t *testing.T) {
	w := DefaultWorkload()
	w.N = 24 // smaller workload: this test checks content, not magnitude
	s := PrefetchSuite(w)
	runs, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Predictor != "" || runs[0].Stats.PrefetchIssued != 0 {
		t.Fatalf("first run must be the no-prefetch baseline: %+v", runs[0].Label)
	}
	var sb strings.Builder
	s.Table(runs).Format(&sb)
	if got := strings.Count(sb.String(), "hides"); got != len(runs)-1 {
		t.Errorf("%d hiding notes, want one per prefetch row:\n%s", got, sb.String())
	}
	rows := s.Rows(runs)
	if rows[0].Window != 1 || rows[2].Predictor != "markov" {
		t.Errorf("rows: window %d, predictor %q; want 1, markov", rows[0].Window, rows[2].Predictor)
	}
}
