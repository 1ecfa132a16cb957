package platform

import (
	"testing"

	"repro/internal/plan"
)

// The integrity path on the dual-region 64-bit system: what a scrubbed
// dispatch pays to check a region, and what a reconfiguration pays to
// rebind and check the static design afterwards.

// BenchmarkScrub times one readback scrub of a loaded region.
func BenchmarkScrub(b *testing.B) {
	s, err := NewSys64N(2)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.LoadModuleOn(0, "brightness", nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := s.ScrubOn(0); rep.Detected {
			b.Fatal("clean region scrubbed dirty")
		}
	}
}

// BenchmarkLoadSwap times one load of region 0, alternating brightness
// and blend: the planner's stream pushed by CPU stores through the bus,
// bridge and HWICAP into the loader, then every manager's rebind with its
// static-design check. It runs on both boards and reports the host cost
// per streamed word (ns/word) beside ns/op. sys32-compressed streams the
// compressed containers through the armed decoder, which stores every
// word one at a time, and also reports the host cost per decoded word
// (ns/raw-word). sys64x2-dma-compressed hands the same containers to the
// region's dock DMA engine (BeginExecuteOn, then FinishExecuteOn), whose
// decompressor expands each op as one slice.
func BenchmarkLoadSwap(b *testing.B) {
	for _, board := range []struct {
		name            string
		new             func() (*System, error)
		compressed, dma bool
	}{
		{"sys32", NewSys32, false, false},
		{"sys64x2", func() (*System, error) { return NewSys64N(2) }, false, false},
		{"sys32-compressed", NewSys32, true, false},
		{"sys64x2-dma-compressed", func() (*System, error) { return NewSys64N(2) }, true, true},
	} {
		b.Run(board.name, func(b *testing.B) {
			s, err := board.new()
			if err != nil {
				b.Fatal(err)
			}
			s.SetCompression(board.compressed)
			mods := [2]string{"brightness", "blend"}
			words, raw := 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if board.dma {
					t, err := s.BeginExecuteOn(0, mods[i%2])
					if err != nil {
						b.Fatal(err)
					}
					if p := t.Plan(); p.Kind != plan.StreamCompressed {
						b.Fatalf("plan %+v: want a compressed stream", p)
					}
					if _, err := s.FinishExecuteOn(t, func() error { return nil }); err != nil {
						b.Fatal(err)
					}
					words, raw = words+t.Plan().Bytes/4, raw+t.Plan().Raw/4
					continue
				}
				if board.compressed {
					p, err := s.PlanForOn(0, mods[i%2])
					if err != nil || p.Kind != plan.StreamCompressed {
						b.Fatalf("plan %+v, err %v: want a compressed stream", p, err)
					}
					raw += p.Raw / 4
				}
				rep, err := s.LoadModuleOn(0, mods[i%2], nil)
				if err != nil {
					b.Fatal(err)
				}
				words += rep.Bytes / 4
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(words), "ns/word")
			if board.compressed {
				b.ReportMetric(ns/float64(raw), "ns/raw-word")
			}
		})
	}
}
