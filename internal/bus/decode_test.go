package bus_test

import (
	"math/rand"
	"testing"

	"repro/internal/bus"
	"repro/internal/platform"
)

// TestDecodeMatchesLinearScan: decode tries the two mappings it matched
// last before it scans. Over every mapping of both boards' buses, addresses at
// each mapping's ends and inside it, and addresses no mapping owns, in a
// seeded random order, it must name the slave and offset, or the error,
// a linear scan does.
func TestDecodeMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, mk := range []func() (*platform.System, error){platform.NewSys32, platform.NewSys64} {
		sys, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []*bus.Bus{sys.PLB, sys.OPB} {
			var addrs []uint32
			for _, m := range b.Windows() {
				base, size := m[0], m[1]
				addrs = append(addrs, base, base+size-1, base+uint32(rng.Int63n(int64(size))))
				if base > 0 {
					addrs = append(addrs, base-1)
				}
				if base+size != 0 {
					addrs = append(addrs, base+size)
				}
			}
			var seq []uint32
			for range 20 {
				seq = append(seq, addrs...)
			}
			rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
			for _, addr := range seq {
				s1, o1, e1 := b.Decode(addr)
				s2, o2, e2 := b.LinearDecode(addr)
				if s1 != s2 || o1 != o2 || (e1 == nil) != (e2 == nil) || (e1 != nil && e1.Error() != e2.Error()) {
					t.Fatalf("%s %s: decode(%#08x) = %v %#x %v, linear scan %v %#x %v",
						sys.Name, b.Name(), addr, s1, o1, e1, s2, o2, e2)
				}
			}
		}
	}
}
