package sched

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/tasks"
)

func cand(idx int, resident string, lastUsed uint64, bytes int) Candidate {
	return Candidate{Index: idx, Resident: resident, LastUsed: lastUsed,
		Plan: plan.Plan{Module: "m", Kind: plan.StreamDifferential, Bytes: bytes}, PlanOK: true}
}

func TestPolicyRegistry(t *testing.T) {
	for _, name := range []string{"", "lru", "mincost", "prefetch", "gang"} {
		if _, err := PolicyByName(name); err != nil {
			t.Errorf("PolicyByName(%q): %v", name, err)
		}
	}
	if _, err := PolicyByName("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
	if names := PolicyNames(); len(names) != 4 || names[0] != "gang" || names[1] != "lru" || names[2] != "mincost" || names[3] != "prefetch" {
		t.Errorf("PolicyNames() = %v", names)
	}
}

func TestLRUPolicyPick(t *testing.T) {
	p, _ := PolicyByName("lru")
	cands := []Candidate{cand(0, "a", 5, 100), cand(1, "b", 2, 900), cand(2, "c", 7, 10)}
	if got := p.Pick("m", cands); got != 1 {
		t.Errorf("lru picked %d, want 1 (least recently used)", got)
	}
	// A member with the module resident always wins.
	cands[2].Resident = "m"
	if got := p.Pick("m", cands); got != 2 {
		t.Errorf("lru picked %d, want resident member 2", got)
	}
}

func TestMinCostPolicyPick(t *testing.T) {
	p, _ := PolicyByName("mincost")
	cands := []Candidate{cand(0, "a", 1, 500), cand(1, "b", 9, 40), cand(2, "c", 3, 300)}
	if got := p.Pick("m", cands); got != 1 {
		t.Errorf("mincost picked %d, want 1 (cheapest planned stream)", got)
	}
	// Resident module wins outright.
	cands[0].Resident = "m"
	if got := p.Pick("m", cands); got != 0 {
		t.Errorf("mincost picked %d, want resident member 0", got)
	}
	cands[0].Resident = "a"
	// Cost ties fall back to LRU order.
	cands[1].Plan.Bytes = 300
	if got := p.Pick("m", cands); got != 2 {
		t.Errorf("mincost picked %d on tie, want 2 (older lastUsed)", got)
	}
	// An unplannable member is the last resort.
	cands[2].PlanOK = false
	if got := p.Pick("m", cands); got != 1 {
		t.Errorf("mincost picked %d, want 1 (plannable beats unplannable)", got)
	}
}

func TestPrefetchPolicyPick(t *testing.T) {
	p, _ := PolicyByName("prefetch")
	// Without reuse estimates the policy is mincost.
	cands := []Candidate{cand(0, "a", 1, 500), cand(1, "b", 9, 40), cand(2, "c", 3, 300)}
	if got := p.Pick("m", cands); got != 1 {
		t.Errorf("prefetch picked %d without predictor, want 1 (cheapest)", got)
	}
	// A hot resident is protected: evicting b (cheapest stream, but its
	// resident is predicted next with certainty) costs 40 + 1.0*500 = 540,
	// so the mid-priced quiet member wins.
	cands[1].ReuseProb = 1
	if got := p.Pick("m", cands); got != 2 {
		t.Errorf("prefetch picked %d, want 2 (protects hot resident)", got)
	}
	// The resident module still wins outright.
	cands[0].Resident = "m"
	if got := p.Pick("m", cands); got != 0 {
		t.Errorf("prefetch picked %d, want resident member 0", got)
	}
}

// TestMinCostPlacementPicksCheaperMember warms two members with different
// modules, then checks that a request for a third module lands on the
// member whose planned transition streams fewer bytes — agreeing with the
// members' own planners.
func TestMinCostPlacementPicksCheaperMember(t *testing.T) {
	p := pool32(t, 2)
	policy, _ := PolicyByName("mincost")
	s := New(p, Options{Policy: policy})
	r1 := <-s.Submit(tasks.JenkinsRun{Seed: 1, Len: 128})
	r2 := <-s.Submit(tasks.PatternRun{Seed: 2, W: 32, H: 16, Threshold: 56})
	if r1.Err != nil || r2.Err != nil {
		t.Fatalf("warmup errors: %v / %v", r1.Err, r2.Err)
	}
	if r1.Member == r2.Member {
		t.Fatalf("warmup requests share member %d", r1.Member)
	}
	members := p.Members()
	pl1, err := members[r1.Member].Sys.PlanForOn(0, "blend")
	if err != nil {
		t.Fatal(err)
	}
	pl2, err := members[r2.Member].Sys.PlanForOn(0, "blend")
	if err != nil {
		t.Fatal(err)
	}
	if pl1.Bytes == pl2.Bytes {
		t.Skipf("transitions cost the same (%d B): placement is cost-indifferent", pl1.Bytes)
	}
	want := r1.Member
	wantBytes, otherBytes := pl1.Bytes, pl2.Bytes
	if pl2.Bytes < pl1.Bytes {
		want = r2.Member
		wantBytes, otherBytes = pl2.Bytes, pl1.Bytes
	}
	r3 := <-s.Submit(tasks.BlendRun{Seed: 3, N: 256})
	s.Wait()
	if r3.Err != nil {
		t.Fatal(r3.Err)
	}
	if r3.Member != want {
		t.Fatalf("blend ran on member %d (%d B planned), want member %d (%d B)",
			r3.Member, otherBytes, want, wantBytes)
	}
	if r3.Report.Kind != plan.StreamDifferential || r3.Report.BytesStreamed != wantBytes {
		t.Fatalf("blend report %+v, want differential of %d B", r3.Report, wantBytes)
	}
}

// TestStressInvariantsMinCost drives the seeded mixed stress workload with
// cost-aware placement (run with -race) and checks the accounting
// invariants that tie the three layers together: the sum of member busy
// times equals the scheduler's Config+Work totals, and the pool snapshot's
// per-member manager counters add up to the scheduler's miss, config-time
// and streamed-byte totals.
func TestStressInvariantsMinCost(t *testing.T) {
	p, err := pool.New(pool.Config{Sys32: 2, Sys64: 2})
	if err != nil {
		t.Fatal(err)
	}
	mix, err := ParseMix("sha1=1,jenkins=2,patternmatch=1,brightness=2,blend=2,fade=2,transfer=1")
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	w, err := GenWorkload(99, n, mix)
	if err != nil {
		t.Fatal(err)
	}
	policy, _ := PolicyByName("mincost")
	s := New(p, Options{Batch: 3, Policy: policy})
	for i, r := range collect(t, s.SubmitAll(w)) {
		if r.Err != nil {
			t.Fatalf("request %d (%s): %v", i, r.Task, r.Err)
		}
	}
	s.Wait()
	st := s.Stats()
	if st.Done != n || st.Errors != 0 {
		t.Fatalf("stats %+v, want %d clean completions", st, n)
	}
	var busy sim.Time
	for _, b := range st.BusyTime {
		busy += b
	}
	if busy != st.Config+st.Work {
		t.Errorf("sum of member busy time %v != config %v + work %v", busy, st.Config, st.Work)
	}
	if st.DiffLoads+st.CompleteLoads != st.Misses {
		t.Errorf("diff %d + complete %d loads != misses %d", st.DiffLoads, st.CompleteLoads, st.Misses)
	}
	var modBytes, modDiffs, modCompletes uint64
	for _, ms := range st.Modules {
		modBytes += ms.Bytes
		modDiffs += ms.Diffs
		modCompletes += ms.Completes
	}
	if modBytes != st.BytesStreamed || modDiffs != st.DiffLoads || modCompletes != st.CompleteLoads {
		t.Errorf("per-module sums (bytes %d diffs %d completes %d) != totals (%d %d %d)",
			modBytes, modDiffs, modCompletes, st.BytesStreamed, st.DiffLoads, st.CompleteLoads)
	}
	var loads, completeLoads, diffLoads, bytes uint64
	var loadTime sim.Time
	for _, m := range p.Snapshot() {
		if m.Corrupted {
			t.Fatalf("member %d: static design corrupted", m.ID)
		}
		loads += m.Loads
		completeLoads += m.CompleteLoads
		diffLoads += m.DiffLoads
		bytes += m.StreamedBytes
		loadTime += m.LoadTime
	}
	if loads != st.Misses {
		t.Errorf("snapshot loads %d != scheduler misses %d", loads, st.Misses)
	}
	if completeLoads != st.CompleteLoads || diffLoads != st.DiffLoads {
		t.Errorf("snapshot kinds (%d complete, %d diff) != scheduler (%d, %d)",
			completeLoads, diffLoads, st.CompleteLoads, st.DiffLoads)
	}
	if bytes != st.BytesStreamed {
		t.Errorf("snapshot streamed bytes %d != scheduler %d", bytes, st.BytesStreamed)
	}
	if loadTime != st.Config {
		t.Errorf("snapshot config time %v != scheduler %v", loadTime, st.Config)
	}
}
