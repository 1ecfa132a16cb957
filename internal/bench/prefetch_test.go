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

// TestPlannerBeatsCompleteOnlyBaseline is the acceptance criterion of the
// transition-aware refactor, on S3's paced seeded workload: the planner
// strictly reduces both visible configuration time and configuration
// bytes streamed versus the complete-only baseline (lru placement,
// complete streams only), under lru and under cost-aware placement
// alike; and cost-aware placement beats lru on both.
func TestPlannerBeatsCompleteOnlyBaseline(t *testing.T) {
	s := PrefetchSuite(DefaultWorkload())
	var runs []Run
	for _, i := range []int{4, 3, 0} { // lru+complete-only, lru+noprefetch, mincost+noprefetch
		r, err := Drive(s.Workload, s.Cases[i])
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	base := runs[0]
	if !base.CompleteOnly || base.Stats.DiffLoads != 0 {
		t.Fatalf("baseline %s issued %d differential loads, want a complete-only run", base.Label, base.Stats.DiffLoads)
	}
	for _, r := range runs[1:] {
		st, bst := r.Stats, base.Stats
		if st.Done != bst.Done || st.Errors != 0 {
			t.Fatalf("%s: %d done %d errors, want %d clean", r.Label, st.Done, st.Errors, bst.Done)
		}
		if st.Config >= bst.Config {
			t.Errorf("%s config time %v not below baseline %v", r.Label, st.Config, bst.Config)
		}
		if st.BytesStreamed >= bst.BytesStreamed {
			t.Errorf("%s streamed %d B, not below baseline %d B", r.Label, st.BytesStreamed, bst.BytesStreamed)
		}
		if st.CompleteLoads != 0 {
			t.Errorf("%s paid %d complete streams; every miss should plan a differential on this workload",
				r.Label, st.CompleteLoads)
		}
	}
	lru, mincost := runs[1], runs[2]
	if mincost.Stats.Config >= lru.Stats.Config || mincost.Stats.BytesStreamed >= lru.Stats.BytesStreamed {
		t.Errorf("%s: %v and %d B, want below %s's %v and %d B", mincost.Label, mincost.Stats.Config,
			mincost.Stats.BytesStreamed, lru.Label, lru.Stats.Config, lru.Stats.BytesStreamed)
	}
}

// TestPrefetchTableShape checks the S3 content beyond the shared suite
// shape: the no-prefetch baseline leads, every prefetch row gets a hiding
// note against it, the lru rows get the planner-vs-complete-only note,
// and the rows record the paced window and predictor.
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
	if got := strings.Count(sb.String(), "hides"); got != 2 {
		t.Errorf("%d hiding notes, want one per prefetch row:\n%s", got, sb.String())
	}
	if !strings.Contains(sb.String(), "lru+noprefetch vs lru+complete-only:") {
		t.Errorf("no planner-vs-complete-only note:\n%s", sb.String())
	}
	rows := s.Rows(runs)
	if rows[0].Window != 1 || rows[2].Predictor != "markov" {
		t.Errorf("rows: window %d, predictor %q; want 1, markov", rows[0].Window, rows[2].Predictor)
	}
}
