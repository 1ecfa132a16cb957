// Timeshare demonstrates the paper's primary motivation — time-sharing
// dynamic areas between mutually exclusive tasks — at the scheduler layer:
// a fade-in/fade-out video effect alternates with a brightness correction
// pass across a pool of two 32-bit platforms. The scheduler's affinity
// placement converges on parking each effect on its own board, after which
// every request is a bitstream-cache hit; on the seed's single board every
// alternation paid a full reconfiguration instead.
//
// The second act rotates three effects over the same two boards — one more
// module than the pool has dynamic areas, so pure affinity must
// reconfigure on the request path once per cycle. With prefetching on, the
// markov predictor learns the rotation and configures the idle board with
// the next effect while the other computes: the reconfiguration time is
// still paid, but off the critical path.
//
// The third act replays the same rotation on HALF the hardware: one 32-bit
// board whose dynamic area is column-split into two independently
// reconfigurable regions (-regions 2 in fpgad terms). The two regions form
// the same two-entry bitstream cache the two boards did, and the prefetcher
// speculates into the idle sibling region — one board now does what act two
// needed a pool for.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/tasks"
)

func main() {
	p, err := pool.New(pool.Config{Sys32: 2})
	if err != nil {
		log.Fatal(err)
	}
	sys := p.Members()[0].Sys
	fmt.Printf("time-sharing %d dynamic areas of %d CLBs each (%s)\n",
		p.Size(), sys.RegionAt(0).CLBs(), sys.Dev.Name)
	fmt.Printf("registered modules: %v\n\n", sys.Mgr.Modules())

	const n = 16 * 1024 // one small frame per step
	s := sched.New(p, sched.Options{Batch: 4})
	var workload []tasks.Runner
	for step := 0; step < 4; step++ {
		workload = append(workload,
			tasks.FadeRun{Seed: int64(step), N: n, F: 64 * (step + 1)},
			tasks.BrightnessRun{Seed: int64(step), N: n, Delta: 10 * (step + 1)},
		)
	}
	var results []sched.Result
	for _, ch := range s.SubmitAll(workload) {
		r := <-ch
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		results = append(results, r)
		cache := "miss"
		if r.Report.CacheHit {
			cache = "hit"
		}
		fmt.Printf("req %d: %-18s member %d  cache %-4s stream %-12s config=%-12v work=%v\n",
			r.ID, r.Task, r.Member, cache, r.Report.Kind, r.Report.Config, r.Report.Work)
	}
	s.Wait()

	fmt.Println()
	bench.ThroughputTable(s.Stats(), results).Format(os.Stdout)
	for _, m := range p.Snapshot() {
		r := m.Regions[0] // one dynamic area per board
		fmt.Printf("member %d: resident %-12s reconfigurations %d, config time %v, %d stream bytes, static intact: %v\n",
			m.ID, r.Resident, r.Loads, r.LoadTime, r.StreamedBytes, !m.Corrupted)
	}

	fmt.Println("\n--- three effects on two dynamic areas, prefetch on ---")
	p2, err := pool.New(pool.Config{Sys32: 2})
	if err != nil {
		log.Fatal(err)
	}
	s2 := sched.New(p2, sched.Options{Prefetch: true}) // default markov predictor
	for step := 0; step < 24; step++ {
		var t tasks.Runner
		switch step % 3 {
		case 0:
			t = tasks.FadeRun{Seed: int64(step), N: n, F: 32 * (step%8 + 1)}
		case 1:
			t = tasks.BrightnessRun{Seed: int64(step), N: n, Delta: 3 * (step % 10)}
		default:
			t = tasks.BlendRun{Seed: int64(step), N: n}
		}
		// Closed loop: the next frame is produced after the previous one,
		// which is exactly the idle window the prefetcher fills.
		r := <-s2.Submit(t)
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		if step >= 21 {
			note := "reconfigured on the request path"
			if r.Report.CacheHit {
				note = "predicted and preloaded"
			}
			fmt.Printf("req %2d: %-18s member %d  stream %-12s config=%-12v (%s)\n",
				r.ID, r.Task, r.Member, r.Report.Kind, r.Report.Config, note)
		}
	}
	s2.Wait()
	st := s2.Stats()
	fmt.Printf("\nrotation of 3 effects over 2 areas: %d/%d cache hits, visible config %v\n",
		st.Hits, st.Done, st.Config)
	fmt.Printf("prefetch: %d speculative loads, %d hits, hidden config %v, %d B speculative (%d B wasted)\n",
		st.PrefetchIssued, st.PrefetchHits, st.HiddenConfig, st.PrefetchBytes, st.PrefetchWasted)

	fmt.Println("\n--- the same rotation on ONE dual-region board ---")
	p3, err := pool.New(pool.Config{Sys32: 1, Regions: 2})
	if err != nil {
		log.Fatal(err)
	}
	board := p3.Members()[0].Sys
	fmt.Printf("board %s: %d regions of %d CLBs each\n",
		board.Name, board.NumRegions(), board.RegionAt(0).CLBs())
	s3 := sched.New(p3, sched.Options{Prefetch: true})
	for step := 0; step < 24; step++ {
		var t tasks.Runner
		switch step % 3 {
		case 0:
			t = tasks.FadeRun{Seed: int64(step), N: n, F: 32 * (step%8 + 1)}
		case 1:
			t = tasks.BrightnessRun{Seed: int64(step), N: n, Delta: 3 * (step % 10)}
		default:
			t = tasks.BlendRun{Seed: int64(step), N: n}
		}
		r := <-s3.Submit(t)
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		if step >= 21 {
			note := "reconfigured on the request path"
			if r.Report.CacheHit {
				note = "predicted and preloaded on the sibling region"
			}
			fmt.Printf("req %2d: %-18s region %d  stream %-12s config=%-12v (%s)\n",
				r.ID, r.Task, r.Region, r.Report.Kind, r.Report.Config, note)
		}
	}
	s3.Wait()
	st3 := s3.Stats()
	fmt.Printf("\none dual-region board: %d/%d cache hits, visible config %v, hidden config %v\n",
		st3.Hits, st3.Done, st3.Config, st3.HiddenConfig)
	board3 := p3.Snapshot()[0]
	for _, r := range board3.Regions {
		fmt.Printf("  region %s: resident %-12s loads %d, static intact: %v\n",
			r.Region, r.Resident, r.Loads, !board3.Corrupted)
	}
}
