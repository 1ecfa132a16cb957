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
