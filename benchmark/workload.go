package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/pool"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/tasks"
)

// stdMix is the repository's standard seven-module mix (S2-S4, S7, S8).
const stdMix = "sha1=1,jenkins=2,patternmatch=1,brightness=2,blend=2,fade=2,transfer=1"

// traceSeed fixes each workload's request trace: which module every
// request needs and, on scrub-fault, when and where each upset lands, as a
// recorded production trace would. The -seed flag draws everything else,
// the task payloads (message, key and image sizes and contents). Seeding
// the module order as well makes one 1000-request draw swing the simulated
// p50 of paced-prefetch between 0.33 and 0.49 ms over seeds 1-10, wider
// than any bound a regression gate could hold; with the trace pinned every
// simulated configuration number repeats across seeds and the latencies
// move only with the payloads. It is 7, the default seed, so at seed 7
// the requests are sched.GenWorkload(7, n, mix) itself.
const traceSeed = 7

// workload is one seeded input set and the discipline that drives it.
type workload struct {
	name string
	why  string
	mix  string
	pool pool.Config
	// ladder is the one-member pool the traced run's ladder boots.
	ladder pool.Config
	// n is the simulated prefix: every simulated metric covers exactly the
	// first n requests, whatever the host speed. Past the prefix the drive
	// repeats the same n requests. block is the request count of one
	// host-timed block; it divides n.
	n, block int
	// upsets drives the seeded fault campaign alongside the requests.
	upsets bool
	// prepare finishes set-up on a booted pool (load-path switches,
	// pre-warm) and returns the scheduler options of the drive.
	prepare func(p *pool.Pool) (sched.Options, error)
	// drive sends one block of requests through the scheduler.
	drive func(d *drive, reqs []tasks.Runner)
}

var workloads = []workload{
	{
		name:   "paced-prefetch",
		why:    "miss-heavy CPU-store HWICAP load path with markov prefetch: loader CRC, fabric rebind hashing, differential assembly",
		mix:    stdMix,
		pool:   pool.Config{Sys32: 2, Sys64: 2},
		ladder: pool.Config{Sys64: 1},
		n:      1000, block: 25,
		prepare: func(*pool.Pool) (sched.Options, error) {
			pred, err := predict.New("markov")
			if err != nil {
				return sched.Options{}, err
			}
			return sched.Options{Batch: 4, Policy: mustPolicy("mincost"), Prefetch: true, Predictor: pred}, nil
		},
		// Window 1 with a settle after every completion (the S3
		// discipline): each request arrives at a quiet pool, so placement
		// and prefetch are reproducible.
		drive: func(d *drive, reqs []tasks.Runner) {
			d.s.SubmitWindowed(reqs, 1, func(r sched.Result) {
				d.record(r)
				settle(d.s)
			})
		},
	},
	{
		name:   "paired-dma",
		why:    "the same miss traffic through the compressed codec and dock DMA engines instead of CPU stores",
		mix:    stdMix,
		pool:   pool.Config{Sys64: 2, Regions: 2},
		ladder: pool.Config{Sys64: 1, Regions: 2},
		n:      1000, block: 50,
		prepare: func(p *pool.Pool) (sched.Options, error) {
			p.SetPlanning(true)
			p.SetCompression(true)
			return sched.Options{Batch: 4, Policy: mustPolicy("gang"), DMA: true}, nil
		},
		// Pairs submitted as one batch, with a settle after each pair (the
		// S8 discipline), so gang placement co-locates a pair's misses on
		// sibling regions whose DMA windows overlap.
		drive: func(d *drive, reqs []tasks.Runner) {
			for i := 0; i < len(reqs); i += 2 {
				for _, ch := range d.s.SubmitBatch(reqs[i:min(i+2, len(reqs))]) {
					d.record(<-ch)
				}
				settle(d.s)
			}
		},
	},
	{
		name:   "scrub-fault",
		why:    "readback scrub on every dispatch plus seeded upsets, quarantine, requeue and repair; carries the fault-conservation check",
		mix:    stdMix,
		pool:   pool.Config{Sys64: 2, Regions: 2},
		ladder: pool.Config{Sys64: 1, Regions: 2},
		n:      1000, block: 25, upsets: true,
		prepare: func(*pool.Pool) (sched.Options, error) {
			return sched.Options{Batch: 4, Policy: mustPolicy("mincost"), Scrub: true}, nil
		},
		// Window 1 plus settle; the campaign's due upsets are applied
		// after each completion, each followed by a scrub pass and a
		// settle (the S7 discipline).
		drive: func(d *drive, reqs []tasks.Runner) {
			d.s.SubmitWindowed(reqs, 1, func(r sched.Result) {
				d.record(r)
				settle(d.s)
				due := d.faults[(d.done-1)%d.w.n+1]
				for _, e := range due {
					if err := fault.Apply(d.p, e); err != nil {
						d.violate("fault after request %d: %v", d.done, err)
					}
				}
				if len(due) > 0 {
					d.s.ScrubAll()
					settle(d.s)
				}
			})
		},
	},
	{
		name:   "hit-dispatch",
		why:    "every slot pre-warmed with jenkins, no configuration traffic: sched dispatch and task simulation only, the bypass for load-path changes",
		mix:    "jenkins=1",
		pool:   pool.Config{Sys32: 32},
		ladder: pool.Config{Sys32: 1},
		n:      10000, block: 10000,
		prepare: func(p *pool.Pool) (sched.Options, error) {
			for _, m := range p.Members() {
				if _, err := m.Sys.ExecuteOn(0, "jenkins", func() error { return nil }); err != nil {
					return sched.Options{}, fmt.Errorf("pre-warm member %d: %w", m.ID, err)
				}
			}
			return sched.Options{Batch: 1, Policy: mustPolicy("lru"), Shards: 1}, nil
		},
		// 64 requests outstanding (two per slot) from one goroutine; the
		// settle at the block's end makes the block boundary a quiet point.
		drive: func(d *drive, reqs []tasks.Runner) {
			d.s.SubmitWindowed(reqs, 64, d.record)
			settle(d.s)
		},
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(names, ", "))
}

func mustPolicy(name string) sched.Policy {
	p, err := sched.PolicyByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// settle waits until the scheduler is fully drained: no request in flight,
// no slot executing, no speculative stream or repair running.
func settle(s *sched.Scheduler) {
	for !s.Drained() {
		time.Sleep(50 * time.Microsecond)
	}
}

// requests returns the workload's n requests: the module order of the
// pinned trace, GenWorkload(traceSeed, n, mix), where the j-th request of
// each module carries the j-th payload GenWorkload(seed, ·, mix) draws for
// that module. GenWorkload draws one request after another from one
// generator, so at seed 7 the two draws coincide request for request.
func (w workload) requests(seed int64) ([]tasks.Runner, error) {
	mix, err := sched.ParseMix(w.mix)
	if err != nil {
		return nil, err
	}
	trace, err := sched.GenWorkload(traceSeed, w.n, mix)
	if err != nil {
		return nil, err
	}
	need := make(map[string]int)
	for _, r := range trace {
		need[r.Module()]++
	}
	// Draw until the seed has given every module as many payloads as the
	// trace needs; twice the trace length almost always suffices.
	var byModule map[string][]tasks.Runner
	for size := w.n; byModule == nil; size *= 2 {
		rs, err := sched.GenWorkload(seed, size, mix)
		if err != nil {
			return nil, err
		}
		byModule = make(map[string][]tasks.Runner)
		for _, r := range rs {
			byModule[r.Module()] = append(byModule[r.Module()], r)
		}
		for m, k := range need {
			if len(byModule[m]) < k {
				byModule = nil
				break
			}
		}
	}
	out := make([]tasks.Runner, w.n)
	for i, r := range trace {
		m := r.Module()
		out[i], byModule[m] = byModule[m][0], byModule[m][1:]
	}
	return out, nil
}

// faultsByDone groups a campaign's events by the completion count that
// triggers them. The campaign covers the simulated prefix; past it the
// same schedule repeats with the requests, keyed by completion count
// modulo n.
func faultsByDone(sc fault.Scenario) map[int][]fault.Event {
	out := make(map[int][]fault.Event)
	for _, e := range sc.Events {
		out[e.AfterDone] = append(out[e.AfterDone], e)
	}
	return out
}
