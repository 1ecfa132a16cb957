package platform

import (
	"sync"
	"testing"
)

func TestExecuteCacheHitMiss(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Resident(); got != "" {
		t.Fatalf("fresh system resident = %q, want blank", got)
	}
	if !s.Supports("fade") || s.Supports("sha1") {
		t.Fatalf("Sys32 support: fade=%v sha1=%v, want true/false",
			s.Supports("fade"), s.Supports("sha1"))
	}
	miss, err := s.ExecuteOn(0, "fade", func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if miss.CacheHit || miss.Config == 0 {
		t.Fatalf("first load: hit=%v config=%v, want miss with nonzero config", miss.CacheHit, miss.Config)
	}
	hit, err := s.ExecuteOn(0, "fade", func() error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.Config != 0 {
		t.Fatalf("reload: hit=%v config=%v, want hit with zero config", hit.CacheHit, hit.Config)
	}
	if got := s.Resident(); got != "fade" {
		t.Fatalf("resident = %q, want fade", got)
	}
}

// TestExecuteSerializes drives one system from many goroutines; the lock
// must serialize the simulated activity (run with -race).
func TestExecuteSerializes(t *testing.T) {
	s, err := NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	mods := []string{"fade", "brightness", "blend", "passthrough"}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.ExecuteOn(0, mods[i%len(mods)], func() error {
				_ = s.Resident // no nested Resident: the lock is held
				s.CPU.Op(100)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if s.Mgr.Corrupted() {
		t.Fatal("static design corrupted by serialized executes")
	}
}
