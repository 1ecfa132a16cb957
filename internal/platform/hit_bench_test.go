package platform_test

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/tasks"
)

// BenchmarkExecuteHit times one warm request through ExecuteOn on the
// 32-bit board: a 600-byte jenkins key, about a benchmark request's mean,
// with the module already resident. Nothing is configured, so this is the
// whole hit path: the payload drawn and written to external memory, the
// driver's word loads and dock stores, and the check against the
// reference hash.
func BenchmarkExecuteHit(b *testing.B) {
	s, err := platform.NewSys32()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.ExecuteOn(0, "jenkins", func() error { return nil }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		task := tasks.JenkinsRun{Seed: int64(i), Len: 600, InitVal: uint32(i)}
		rep, err := s.ExecuteOn(0, task.Module(), func() error { return task.Run(s) })
		if err != nil {
			b.Fatal(err)
		}
		if !rep.CacheHit {
			b.Fatal("a resident module was reconfigured")
		}
	}
}

// BenchmarkFeed times cpu.Feed, the drivers' memory-to-dock word loop, in
// ns per word moved: a 600-byte jenkins-shaped feed (50 groups of three
// byte-reversed words, 6 ops each) and a 4,096-word transfer feed (one
// word and 4 ops per group), from external memory to the dock's data
// register. On NewSys32 the repeated groups advance in closed form; on
// NewSys64 the cached DDR keeps the feed one instruction at a time.
func BenchmarkFeed(b *testing.B) {
	for _, board := range []struct {
		name string
		mk   func() (*platform.System, error)
	}{
		{"sys32", platform.NewSys32},
		{"sys64", platform.NewSys64},
	} {
		for _, f := range []struct {
			name, module string
			n, size, ops int
			swap         bool
		}{
			{"jenkins-600B", "jenkins", 50, 3, 6, true},
			{"transfer-4096w", "passthrough", 4096, 1, 4, false},
		} {
			b.Run(board.name+"/"+f.name, func(b *testing.B) {
				s, err := board.mk()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.ExecuteOn(0, f.module, func() error { return nil }); err != nil {
					b.Fatal(err)
				}
				words := f.n * f.size
				src := s.MemBase() + 0x10_0000
				data := make([]byte, 4*words)
				for i := range data {
					data[i] = byte(i * 7)
				}
				if err := s.WriteMem(src, data); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Core().Reset()
					s.CPU.Feed(s.DockData(), src, f.n, f.size, f.ops, f.swap)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*words), "ns/word")
			})
		}
	}
}
