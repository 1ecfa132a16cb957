package pool

import (
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
	if !p.Supports("sha1") {
		t.Error("pool with a 64-bit member must support sha1")
	}
	if p32, _ := New(Config{Sys32: 1}); p32.Supports("sha1") {
		t.Error("pure 32-bit pool must not support sha1")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("empty pool config accepted")
	}
}

func TestSnapshotDuringConcurrentExecution(t *testing.T) {
	p, err := New(Config{Sys32: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, m := range p.Members() {
		wg.Add(1)
		go func(m *Member) {
			defer wg.Done()
			r := tasks.FadeRun{Seed: int64(m.ID), N: 256, F: 64}
			for i := 0; i < 3; i++ {
				if _, err := m.Sys.ExecuteOn(0, r.Module(), func() error { return r.Run(m.Sys) }); err != nil {
					t.Error(err)
				}
			}
		}(m)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
			p.Snapshot() // must be race-free against ExecuteOn
		}
	}
	for _, st := range p.Snapshot() {
		if st.Resident != "fade" || st.Loads != 1 || st.Corrupted {
			t.Errorf("member %d: %+v, want fade resident after exactly one load", st.ID, st)
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
