package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/bitlinker"
	"repro/internal/bitstream"
	"repro/internal/hwcore"
	"repro/internal/plan"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/tasks"
)

// The ladder's module pair: every rung that needs a module uses jenkins,
// and the differential and compressed rungs switch between it and fade.
// Both fit every board type of the workloads.
const ladderA, ladderB = "jenkins", "fade"

// crcSink keeps the timed FrameCRC call from being optimised away.
var crcSink uint16

// ladder times single calls into each layer's public functions on a fresh
// one-member pool of the workload's board type, so a per-layer change
// shows on its own rung before it shows end to end. Each rung reports the
// median of its repetitions.
func ladder(w workload, m metrics) error {
	var p *pool.Pool
	t, err := repeat(3, func() (time.Duration, error) {
		return clock(func() (err error) {
			p, err = pool.New(w.ladder)
			return err
		})
	})
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	m.set("platform.boot_s", t.Seconds())

	sys := p.Members()[0].Sys
	baseline := sys.CM.Clone() // nothing loaded yet: every region blank
	area := sys.Floorplan.Areas[0]
	asm, err := bitlinker.New(sys.Dev, area.R, baseline, area.Macro)
	if err != nil {
		return err
	}
	placed := func(name string) (bitlinker.Placed, error) {
		spec, err := hwcore.SpecByName(name)
		if err != nil {
			return bitlinker.Placed{}, err
		}
		c, err := hwcore.BuildComponent(spec, sys.Dev, area.R, area.Macro)
		if err != nil {
			return bitlinker.Placed{}, err
		}
		return bitlinker.Placed{C: c, ColOff: area.R.W - c.W}, nil
	}
	a, err := placed(ladderA)
	if err != nil {
		return err
	}
	b, err := placed(ladderB)
	if err != nil {
		return err
	}

	var full, diff *bitlinker.Result
	if t, err = repeat(5, func() (time.Duration, error) {
		return clock(func() (err error) { full, err = asm.Assemble(a); return err })
	}); err != nil {
		return err
	}
	m.set("bitlinker.assemble_ms", ms(t))
	assumed := asm.Target(b)
	if t, err = repeat(5, func() (time.Duration, error) {
		return clock(func() (err error) { diff, err = asm.AssembleDifferential(assumed, a); return err })
	}); err != nil {
		return err
	}
	m.set("bitlinker.assemble_diff_ms", ms(t))

	words := len(full.Stream.Words)
	t, _ = repeat(5, func() (time.Duration, error) {
		return clock(func() error { crcSink = bitstream.FrameCRC(0, full.Stream.Words); return nil })
	})
	m.set("bitstream.crc_ns_per_word", float64(t.Nanoseconds())/float64(words))
	if t, err = repeat(5, func() (time.Duration, error) {
		l := bitstream.NewLoader(baseline.Clone())
		return clock(func() error { return l.Load(full.Stream) })
	}); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	m.set("bitstream.load_ns_per_word", float64(t.Nanoseconds())/float64(words))
	var z *bitstream.Compressed
	if t, err = repeat(5, func() (time.Duration, error) {
		return clock(func() (err error) {
			z, err = bitstream.Compress(sys.Dev, diff.Stream, assumed, diff.Frames)
			return err
		})
	}); err != nil {
		return err
	}
	m.set("bitstream.compress_ms", ms(t))
	if t, err = repeat(5, func() (time.Duration, error) {
		l := bitstream.NewLoader(assumed.Clone())
		return clock(func() error { return z.Decode(l) })
	}); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	m.set("bitstream.decode_ns_per_word", float64(t.Nanoseconds())/float64(z.RawWords))

	// Region 0's manager and planner, driven directly: the member belongs
	// to no scheduler until the round-trip rung.
	next := ladderA
	load := func(kind plan.StreamKind, authoritative bool) (time.Duration, error) {
		if next == ladderA {
			next = ladderB
		} else {
			next = ladderA
		}
		resident, ok := sys.Mgr.ResidentState()
		pl, err := sys.Planner.Plan(resident, ok && authoritative, next)
		if err != nil {
			return 0, err
		}
		if pl.Kind != kind {
			return 0, fmt.Errorf("planner chose a %v stream for %q -> %q, want %v", pl.Kind, resident, next, kind)
		}
		return clock(func() error { _, err := sys.Mgr.LoadPlanned(pl); return err })
	}
	for _, r := range []struct {
		name          string
		kind          plan.StreamKind
		authoritative bool
		compress      bool
	}{
		{"core.load_ms.complete", plan.StreamComplete, false, false},
		{"core.load_ms.diff", plan.StreamDifferential, true, false},
		{"core.load_ms.compressed", plan.StreamCompressed, true, true},
	} {
		sys.Planner.SetCompression(r.compress)
		// Two untimed loads assemble and memoize both directions' streams.
		for i := 0; i < 2; i++ {
			if _, err := load(r.kind, r.authoritative); err != nil {
				return err
			}
		}
		if t, err = repeat(6, func() (time.Duration, error) { return load(r.kind, r.authoritative) }); err != nil {
			return err
		}
		m.set(r.name, ms(t))
	}
	if t, err = repeat(9, func() (time.Duration, error) {
		return clock(func() error {
			if detected, _ := sys.Mgr.Scrub(); detected {
				return fmt.Errorf("scrub detected corruption in a freshly loaded region")
			}
			return nil
		})
	}); err != nil {
		return err
	}
	m.set("core.scrub_ms", ms(t))

	const calls = 1000
	resident := sys.Mgr.Current()
	if t, err = repeat(5, func() (time.Duration, error) {
		return clock(func() error {
			for i := 0; i < calls; i++ {
				rep, err := sys.ExecuteOn(0, resident, func() error { return nil })
				if err != nil {
					return err
				}
				if !rep.CacheHit {
					return fmt.Errorf("ExecuteOn(%q) reconfigured a resident module", resident)
				}
			}
			return nil
		})
	}); err != nil {
		return err
	}
	m.set("platform.exec_hit_us", us(t)/calls)

	s := sched.New(p, sched.Options{})
	defer s.Wait()
	task := tasks.JenkinsRun{Seed: 1, Len: 64, InitVal: 1}
	if r := <-s.Submit(task); r.Err != nil {
		return r.Err
	}
	if t, err = repeat(201, func() (time.Duration, error) {
		settle(s)
		return clock(func() error { return (<-s.Submit(task)).Err })
	}); err != nil {
		return err
	}
	m.set("sched.roundtrip_us", us(t))
	return nil
}

// repeat runs f k times and returns the median duration it reports.
func repeat(k int, f func() (time.Duration, error)) (time.Duration, error) {
	ds := make([]time.Duration, k)
	for i := range ds {
		d, err := f()
		if err != nil {
			return 0, err
		}
		ds[i] = d
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[k/2], nil
}

// clock times one call of f.
func clock(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
