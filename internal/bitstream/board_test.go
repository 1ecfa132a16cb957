package bitstream_test

import (
	"testing"

	"repro/internal/bitlinker"
	"repro/internal/bitstream"
	"repro/internal/fabric"
	"repro/internal/hwcore"
	"repro/internal/platform"
)

// boardContainer builds the compressed differential the 64-bit board's
// load path streams into region 0 to replace module from with module to:
// assembled against from's image and encoded against it. It returns that
// image, the container and the raw stream.
func boardContainer(tb testing.TB, from, to string) (*fabric.ConfigMemory, *bitstream.Compressed, *bitstream.Stream) {
	tb.Helper()
	sys, err := platform.NewSys64()
	if err != nil {
		tb.Fatal(err)
	}
	area := sys.Floorplan.Areas[0]
	asm, err := bitlinker.New(sys.Dev, area.R, sys.CM.Clone(), area.Macro)
	if err != nil {
		tb.Fatal(err)
	}
	placed := func(name string) bitlinker.Placed {
		spec, err := hwcore.SpecByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		c, err := hwcore.BuildComponent(spec, sys.Dev, area.R, area.Macro)
		if err != nil {
			tb.Fatal(err)
		}
		return bitlinker.Placed{C: c, ColOff: area.R.W - c.W}
	}
	assumed := asm.Target(placed(from))
	diff, err := asm.AssembleDifferential(assumed, placed(to))
	if err != nil {
		tb.Fatal(err)
	}
	z, err := bitstream.Compress(sys.Dev, diff.Stream, assumed, diff.Frames)
	if err != nil {
		tb.Fatal(err)
	}
	return assumed, z, diff.Stream
}

// TestDecoderMatchesReferenceOnBoard runs the decoder oracle's table over
// a real region container of the 64-bit board.
func TestDecoderMatchesReferenceOnBoard(t *testing.T) {
	assumed, z, raw := boardContainer(t, "brightness", "blend")
	bitstream.NewDecodeOracle(assumed).CheckTable(t, z.Words, raw.Words)
}

// BenchmarkDecode decodes a board-sized container, the 64-bit board's
// jenkins → fade differential, into a loader per iteration and reports
// the host cost per decoded word: the Go twin of the benchmark ladder's
// bitstream.decode_ns_per_word, which times the same pair.
func BenchmarkDecode(b *testing.B) {
	assumed, z, _ := boardContainer(b, "jenkins", "fade")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l := bitstream.NewLoader(assumed.Clone())
		b.StartTimer()
		if err := z.Decode(l); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*z.RawWords), "ns/raw-word")
}
