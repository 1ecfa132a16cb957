package pool

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/region"
	"repro/internal/tasks"
)

func TestNewBuildsConfiguredMix(t *testing.T) {
	p, err := New(Config{Sys32: 2, Sys64: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 3 {
		t.Fatalf("size = %d, want 3", p.Size())
	}
	for i, m := range p.Members() {
		want := "sys32"
		if i >= 2 {
			want = "sys64"
		}
		if m.Sys.Name != want || m.ID != i {
			t.Errorf("member %d: %s id=%d, want %s id=%d", i, m.Sys.Name, m.ID, want, i)
		}
	}
	for _, m := range p.Members() {
		if got := m.Sys.SupportsOn(0, "sha1"); got != m.Sys.Is64 {
			t.Errorf("member %d (%s) supports sha1: %v, want only the 64-bit members to", m.ID, m.Sys.Name, got)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("empty pool config accepted")
	}
	fp, err := region.Default(false, 1)
	if err != nil {
		t.Fatal(err)
	}
	one := []MemberSpec{{Floorplan: fp}}
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config{Sys32: -1, Sys64: 2}, "negative"},
		{Config{Sys32: 2, Sys64: -1}, "negative"},
		{Config{Sys32: -3, Sys64: 1}, "negative"},
		{Config{Sys32: 1, Regions: -4}, "negative"},
		{Config{Sys32: 3, Regions: 5, Members: one}, "would go unused"},
		{Config{Sys64: 1, Members: one}, "would go unused"},
		{Config{Regions: 2, Members: one}, "would go unused"},
	} {
		if p, err := New(tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("New(%+v) = %v, %v; want an error naming %q", tc.cfg, p, err, tc.want)
		}
	}
}

// TestSnapshotDuringConcurrentExecution drives both regions of every
// member from their own goroutines while snapshots are taken (run with
// -race). Each member's status is read under its lock once, so every row
// of every snapshot conserves its loads, and a board's rows come from one
// instant.
func TestSnapshotDuringConcurrentExecution(t *testing.T) {
	p, err := New(Config{Sys32: 2, Regions: 2})
	if err != nil {
		t.Fatal(err)
	}
	runs := []tasks.Runner{
		tasks.FadeRun{Seed: 1, N: 256, F: 64},
		tasks.BrightnessRun{Seed: 2, N: 256, Delta: 9},
	}
	var wg sync.WaitGroup
	for _, m := range p.Members() {
		for ri, r := range runs {
			wg.Add(1)
			go func(m *Member, ri int, r tasks.Runner) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					if _, err := m.Sys.ExecuteOn(ri, r.Module(), func() error { return r.Run(m.Sys) }); err != nil {
						t.Error(err)
					}
				}
			}(m, ri, r)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	conserved := func(snap []MemberState) {
		for _, st := range snap {
			for _, r := range st.Regions {
				if r.Loads != r.CompleteLoads+r.DiffLoads+r.CompressedLoads+r.AbortedLoads {
					t.Errorf("member %d region %s: counters %+v do not conserve loads", st.ID, r.Region, r.Counters)
				}
			}
		}
	}
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
			conserved(p.Snapshot()) // must be race-free against ExecuteOn
		}
	}
	snap := p.Snapshot()
	conserved(snap)
	for _, st := range snap {
		if st.Corrupted {
			t.Errorf("member %d: static design corrupted", st.ID)
		}
		for ri, r := range st.Regions {
			if want := runs[ri].Module(); r.Resident != want || r.Loads != 1 {
				t.Errorf("member %d region %s: %+v, want %s resident after exactly one load", st.ID, r.Region, r, want)
			}
		}
	}
}

// TestRegionsConfig: Config.Regions splits every member's dynamic area;
// explicit MemberSpec floorplans override the counts entirely.
func TestRegionsConfig(t *testing.T) {
	p, err := New(Config{Sys32: 1, Sys64: 1, Regions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.Slots() != 4 {
		t.Fatalf("2 dual-region members expose %d slots, want 4", p.Slots())
	}
	for _, m := range p.Members() {
		if m.Sys.NumRegions() != 2 {
			t.Errorf("member %d has %d regions, want 2", m.ID, m.Sys.NumRegions())
		}
	}
	for _, st := range p.Snapshot() {
		if len(st.Regions) != 2 {
			t.Errorf("snapshot of member %d carries %d region statuses, want 2", st.ID, len(st.Regions))
		}
	}
	fp, err := region.Default(true, 2)
	if err != nil {
		t.Fatal(err)
	}
	single := region.Floorplan{Name: "half64", Areas: fp.Areas[:1]}
	p2, err := New(Config{Members: []MemberSpec{
		{Is64: true, Floorplan: single},
		{Is64: true, Floorplan: fp},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Slots() != 3 {
		t.Fatalf("explicit members expose %d slots, want 3", p2.Slots())
	}
	if got := p2.Members()[0].Sys.RegionAt(0); got != fp.Areas[0].R {
		t.Errorf("explicit single-region member region %v, want %v", got, fp.Areas[0].R)
	}
}

// TestConcurrentBootsShareImages: two pools booting at once share every
// board shape's image without a race. The three-region shapes are booted
// by no other test of the package, so their two boots race for the
// image's first build.
func TestConcurrentBootsShareImages(t *testing.T) {
	for _, cfg := range []Config{{Sys32: 8, Sys64: 2}, {Sys32: 8, Sys64: 2, Regions: 3}} {
		var pools [2]*Pool
		var wg sync.WaitGroup
		for i := range pools {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				p, err := New(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				pools[i] = p
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		stream := func(m *Member) *uint32 {
			return &m.Sys.Mgr.Module("brightness").Complete().Stream.Words[0]
		}
		for _, p := range pools {
			for _, m := range p.Members() {
				ref := pools[0].Members()[0]
				if m.Sys.Is64 {
					ref = pools[0].Members()[cfg.Sys32]
				}
				if stream(m) != stream(ref) {
					t.Errorf("%+v: member %d does not share its shape's brightness stream", cfg, m.ID)
				}
			}
		}
	}
}

// BenchmarkPoolBoot times booting a pool whose board shapes are already
// imaged: the per-board cost of a boot, one configuration memory overlaid
// on the shape's static design plus the board's buses, CPU, managers and
// planners. The -jenkins case then executes jenkins on every member's
// first region, as the benchmark's hit-dispatch set-up does: each board
// streams the blank → jenkins differential its shape's memo holds.
func BenchmarkPoolBoot(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
		warm string // the module every member first executes; "" for none
	}{
		{"sys32x32", Config{Sys32: 32}, ""},
		{"sys64x2-regions2", Config{Sys64: 2, Regions: 2}, ""},
		{"sys32x32-jenkins", Config{Sys32: 32}, "jenkins"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			boot := func() {
				p, err := New(bc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				if bc.warm != "" {
					for _, m := range p.Members() {
						if _, err := m.Sys.ExecuteOn(0, bc.warm, func() error { return nil }); err != nil {
							b.Fatal(err)
						}
					}
				}
				bootSink = p
			}
			boot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				boot()
			}
		})
	}
}

// bootSink keeps the benchmarked boot from being optimised away.
var bootSink *Pool
