package tasks

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// drawSeeds are the seeds the payload source is held to math/rand at:
// every normalisation edge (0, negatives, multiples of ±(2³¹−1), the
// int64 extremes, 0's stand-in) and 300 seeded random ones.
func drawSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, -12345, seedOfZero,
		lehmerMod, -lehmerMod, 2 * lehmerMod, -2 * lehmerMod, 7 * lehmerMod,
		lehmerMod - 1, lehmerMod + 1, -lehmerMod + 1, -lehmerMod - 1,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1,
	}
	rng := rand.New(rand.NewSource(2026))
	for i := 0; i < 300; i++ {
		s := rng.Int63()
		switch i % 3 {
		case 1:
			s = -s
		case 2:
			s %= 1 << 20
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// TestPayloadMatchesMathRand holds runnerData byte for byte to
// rand.New(rand.NewSource(seed)).Read, and the source's Uint32s to
// math/rand's. The lengths straddle the jump-ahead bound: 1,911 bytes are
// exactly 273 draws of 7 bytes, 1,912 the first that reaches the fallback.
func TestPayloadMatchesMathRand(t *testing.T) {
	lengths := []int{0, 1, 6, 7, 8, 1910, 1911, 1912, 2338, 16384}
	for _, seed := range drawSeeds() {
		for _, n := range lengths {
			want := make([]byte, n)
			rand.New(rand.NewSource(seed)).Read(want)
			if got := runnerData(seed, n); !bytes.Equal(got, want) {
				i := 0
				for got[i] == want[i] {
					i++
				}
				t.Fatalf("seed %d, %d bytes: byte %d (draw %d) = %#x, want %#x", seed, n, i, i/7, got[i], want[i])
			}
		}
		got, want := rand.New(newJumpSource(seed)), rand.New(rand.NewSource(seed))
		for k := 0; k < 1000; k++ {
			if g, w := got.Uint32(), want.Uint32(); g != w {
				t.Fatalf("seed %d: Uint32 draw %d = %#x, want %#x", seed, k, g, w)
			}
		}
	}
}

// TestJumpSourceReseeds checks that Seed restarts the stream, including
// from past the bound, where the fallback serves the draws.
func TestJumpSourceReseeds(t *testing.T) {
	got, want := rand.New(newJumpSource(1)), rand.New(rand.NewSource(1))
	for _, seed := range []int64{5, 9, -3, 0} {
		got.Seed(seed)
		want.Seed(seed)
		for k := 0; k < 2*jumpDraws; k++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("Seed(%d): draw %d = %#x, want %#x", seed, k, g, w)
			}
		}
	}
}

// BenchmarkPayload times one 600-byte task payload (86 draws).
func BenchmarkPayload(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(runnerData(int64(i), 600)) != 600 {
			b.Fatal("short payload")
		}
	}
}
