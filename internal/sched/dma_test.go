package sched

import (
	"testing"

	"repro/internal/tasks"
)

// pairWorkload is the deterministic paired drive: rounds of two distinct
// cold modules submitted as one batch against a quiesced scheduler, so the
// gang policy's pairing decision is reproducible.
func pairWorkload(rounds int) [][]tasks.Runner {
	out := make([][]tasks.Runner, 0, rounds)
	a := []tasks.Runner{
		tasks.JenkinsRun{Seed: 1, Len: 256, InitVal: 1},
		tasks.BrightnessRun{Seed: 2, N: 256, Delta: 9},
		tasks.PatternRun{Seed: 3, W: 32, H: 16, Threshold: 56},
	}
	b := []tasks.Runner{
		tasks.FadeRun{Seed: 4, N: 256, F: 33},
		tasks.BlendRun{Seed: 5, N: 256},
		tasks.SHA1Run{Seed: 6, Len: 128},
	}
	for i := 0; i < rounds; i++ {
		out = append(out, []tasks.Runner{a[i%len(a)], b[(i+1)%len(b)]})
	}
	return out
}

func runPaired(t *testing.T, s *Scheduler, rounds int) []Result {
	t.Helper()
	var out []Result
	for _, pair := range pairWorkload(rounds) {
		for _, r := range collect(t, s.SubmitBatch(pair)) {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Task, r.Err)
			}
			out = append(out, r)
		}
		quiesce(t, s)
	}
	s.Wait()
	return out
}

// TestDMAGangOverlap: in DMA mode with the gang policy, a batch of two
// cold misses lands on sibling regions of one member, their port windows
// open together, and the overlapped configuration shows up as
// OverlapConfig instead of request latency.
func TestDMAGangOverlap(t *testing.T) {
	p := pool64x2(t, 2)
	gang, err := PolicyByName("gang")
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, Options{DMA: true, Policy: gang})
	pair := pairWorkload(1)[0]
	res := collect(t, s.SubmitBatch(pair))
	s.Wait()
	if res[0].Err != nil || res[1].Err != nil {
		t.Fatalf("errors: %v / %v", res[0].Err, res[1].Err)
	}
	if res[0].Member != res[1].Member || res[0].Region == res[1].Region {
		t.Fatalf("gang did not pair sibling regions: (%d,%d) and (%d,%d)",
			res[0].Member, res[0].Region, res[1].Member, res[1].Region)
	}
	st := s.Stats()
	if st.DMALoads != 2 {
		t.Errorf("DMALoads = %d, want 2", st.DMALoads)
	}
	if st.OverlapConfig == 0 {
		t.Errorf("no overlapped configuration time: %+v / %+v", res[0].Report, res[1].Report)
	}
	// The overlapped window part never shows up as visible config time.
	total := res[0].Report.Config + res[0].Report.ConfigHidden +
		res[1].Report.Config + res[1].Report.ConfigHidden
	if st.Config+st.OverlapConfig != total {
		t.Errorf("Config %v + OverlapConfig %v != window total %v", st.Config, st.OverlapConfig, total)
	}
}

// TestDMAByteConservation: wire bytes booked by the scheduler equal the
// bytes the members' own configuration-port counters saw, DMA or not —
// the accounting law the CPU path already obeys — across the {DMA, Scrub}
// matrix: dispatch scrubbing never takes a miss off the DMA engines.
func TestDMAByteConservation(t *testing.T) {
	for _, c := range []struct{ dma, scrub bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		p := pool64x2(t, 2)
		gang, _ := PolicyByName("gang")
		s := New(p, Options{DMA: c.dma, Scrub: c.scrub, Policy: gang})
		res := runPaired(t, s, 6)
		st := s.Stats()
		var member uint64
		for _, m := range p.Members() {
			for _, r := range m.Sys.Status().Regions {
				member += r.StreamedBytes
			}
		}
		if st.BytesStreamed != member {
			t.Errorf("%+v: scheduler booked %d B, members streamed %d B", c, st.BytesStreamed, member)
		}
		if c.dma && st.DMALoads == 0 {
			t.Errorf("%+v: no DMA loads in DMA mode", c)
		}
		if !c.dma && (st.DMALoads != 0 || st.OverlapConfig != 0) {
			t.Errorf("%+v: CPU mode booked DMA counters: %d loads, %v overlap", c, st.DMALoads, st.OverlapConfig)
		}
		for _, r := range res {
			if !r.Report.CacheHit && r.Report.DMA != c.dma {
				t.Errorf("%+v: request %d (%s) missed with Report.DMA = %v", c, r.ID, r.Task, r.Report.DMA)
			}
		}
		if c.scrub && st.ScrubPasses == 0 {
			t.Errorf("%+v: no dispatch scrub passes", c)
		}
		if st.FaultsDetected != st.Repairs {
			t.Errorf("%+v: %d faults detected != %d repairs", c, st.FaultsDetected, st.Repairs)
		}
	}
}

// TestDMADeterministic: two fresh pools driven by the identical paired
// workload produce identical aggregate statistics — the property the S8
// benchmark rows rely on.
func TestDMADeterministic(t *testing.T) {
	run := func() Stats {
		p := pool64x2(t, 2)
		p.SetCompression(true)
		gang, _ := PolicyByName("gang")
		s := New(p, Options{DMA: true, Policy: gang, Batch: 2})
		runPaired(t, s, 8)
		return s.Stats()
	}
	a, b := run(), run()
	if a.Config != b.Config || a.Work != b.Work || a.BytesStreamed != b.BytesStreamed ||
		a.OverlapConfig != b.OverlapConfig || a.Hits != b.Hits || a.Misses != b.Misses ||
		a.DMALoads != b.DMALoads || a.CompressedLoads != b.CompressedLoads {
		t.Errorf("runs diverged:\n%+v\n%+v", a, b)
	}
	if a.CompressedLoads == 0 {
		t.Error("compression on but no compressed loads")
	}
	if a.Errors != 0 {
		t.Errorf("errors: %d", a.Errors)
	}
}

// TestDMAPairFasterThanSerial: under identical gang placement, turning on
// DMA moves the overlapped part of each pair's configuration off the
// visible path — same bytes, less visible config time. This is the
// wall-clock win S8 measures, reproduced at test scale.
func TestDMAPairFasterThanSerial(t *testing.T) {
	run := func(dma bool) Stats {
		p := pool64x2(t, 2)
		gang, _ := PolicyByName("gang")
		s := New(p, Options{DMA: dma, Policy: gang})
		runPaired(t, s, 6)
		return s.Stats()
	}
	serial, overlapped := run(false), run(true)
	if got, want := overlapped.BytesStreamed, serial.BytesStreamed; got != want {
		t.Fatalf("placement diverged: %d B streamed with DMA, %d without", got, want)
	}
	if overlapped.Config >= serial.Config {
		t.Errorf("visible config with DMA %v not below CPU path %v "+
			"(overlap %v)", overlapped.Config, serial.Config, overlapped.OverlapConfig)
	}
	if overlapped.OverlapConfig == 0 {
		t.Error("no overlapped configuration time")
	}
}
