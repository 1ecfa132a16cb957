package platform_test

import (
	"slices"
	"testing"

	"repro/internal/bitlinker"
	"repro/internal/bitstream"
	"repro/internal/cpu"
	"repro/internal/hwcore"
	"repro/internal/icap"
	. "repro/internal/platform"
	"repro/internal/sim"
)

// boards are the two boards, the 64-bit one with its area split in two.
var boards = []struct {
	name string
	new  func() (*System, error)
}{
	{"sys32", NewSys32},
	{"sys64x2", func() (*System, error) { return NewSys64N(2) }},
}

func boot(t *testing.T, mk func() (*System, error)) *System {
	t.Helper()
	s, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// assemble builds region ri's complete configuration of the module as the
// region's manager did at boot, over the configuration memory of a system
// that has not been reconfigured yet (it still holds the baseline). It
// returns nil for a module that does not fit the region.
func assemble(t *testing.T, s *System, ri int, spec hwcore.Spec) *bitlinker.Result {
	t.Helper()
	area := s.Floorplan.Areas[ri]
	comp, err := hwcore.BuildComponent(spec, s.Dev, area.R, area.Macro)
	if err != nil {
		return nil
	}
	asm, err := bitlinker.New(s.Dev, area.R, s.CM.Clone(), area.Macro)
	if err != nil {
		t.Fatal(err)
	}
	res, err := asm.Assemble(bitlinker.Placed{C: comp, ColOff: area.R.W - comp.W})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func spec(t *testing.T, name string) hwcore.Spec {
	t.Helper()
	for _, sp := range hwcore.Specs() {
		if sp.Name == name {
			return sp
		}
	}
	t.Fatalf("no module %s", name)
	return hwcore.Spec{}
}

// boardState is everything a run of HWICAP stores can move on a board,
// apart from the configuration frames.
type boardState struct {
	now                   sim.Time
	cpu                   cpu.Stats
	plb, opb              [3]uint64
	bridge                [2]uint64
	icapWords             uint64
	frames, configs, crcs uint64
	loaderErr             string
	module                string
}

func stateOf(s *System) boardState {
	st := boardState{now: s.K.Now(), cpu: s.CPU.Stats(), icapWords: s.ICAP.WordsWritten(), module: s.CurrentModule()}
	st.plb[0], st.plb[1], st.plb[2] = s.PLB.Stats()
	st.opb[0], st.opb[1], st.opb[2] = s.OPB.Stats()
	st.bridge[0], st.bridge[1] = s.Bridge.Stats()
	st.frames, st.configs, st.crcs = s.ICAP.Loader().Stats()
	if err := s.ICAP.Loader().Err(); err != nil {
		st.loaderErr = err.Error()
	}
	return st
}

// TestStoreStreamMatchesPerWordSWOnBoards: on both boards the CPU's stores
// to the HWICAP are guarded, so each one blocks across the PLB, the bridge
// and the OPB. Pushing a stream with cpu.StoreStream must leave the board
// exactly as one SW per word does, for a module's complete stream, its
// compressed container through the armed decoder, and a stream that fails
// its CRC check mid-way.
func TestStoreStreamMatchesPerWordSWOnBoards(t *testing.T) {
	for _, b := range boards {
		s := boot(t, b.new)
		res := assemble(t, s, 0, spec(t, "brightness"))
		z, err := bitstream.Compress(s.Dev, res.Stream, nil, res.Frames)
		if err != nil {
			t.Fatal(err)
		}
		bad := slices.Clone(res.Stream.Words)
		bad[len(bad)/2] ^= 1 << 11
		for _, tc := range []struct {
			name       string
			words      []uint32
			compressed bool
			module     string
		}{
			{"complete", res.Stream.Words, false, "brightness"},
			{"compressed", z.Words, true, "brightness"},
			{"fails mid-way", bad, false, ""},
		} {
			t.Run(b.name+"/"+tc.name, func(t *testing.T) {
				ref, got := boot(t, b.new), boot(t, b.new)
				if tc.compressed {
					ref.ICAP.ArmDecoder()
					got.ICAP.ArmDecoder()
				}
				for _, w := range tc.words {
					ref.CPU.SW(AddrICAP+icap.RegWriteFIFO, w)
				}
				got.CPU.StoreStream(AddrICAP+icap.RegWriteFIFO, tc.words)
				ref.CPU.Sync()
				got.CPU.Sync()
				a, g := stateOf(ref), stateOf(got)
				if a != g {
					t.Fatalf("StoreStream differs from per-word SW:\n per-word %+v\n stream   %+v", a, g)
				}
				if a.module != tc.module || (a.loaderErr != "") != (tc.module == "") {
					t.Fatalf("region 0 holds %q with loader error %q, want %q", a.module, a.loaderErr, tc.module)
				}
				if tc.compressed {
					if e1, e2 := ref.ICAP.DisarmDecoder(), got.ICAP.DisarmDecoder(); e1 != nil || e2 != nil {
						t.Fatalf("container rejected: per-word %v, stream %v", e1, e2)
					}
				}
				dev := ref.Dev
				for i := range dev.NumFrames() {
					far, err := dev.FARAt(i)
					if err != nil {
						t.Fatal(err)
					}
					fa, _ := ref.CM.ReadFrame(far)
					fg, _ := got.CM.ReadFrame(far)
					if !slices.Equal(fa, fg) {
						t.Fatalf("frame %v differs after StoreStream", far)
					}
				}
			})
		}
	}
}

// TestModuleRegionHashesDistinct: rebind tells configurations apart by
// their region hash alone, so on every region of both boards, single and
// split, every module that fits must configure a hash of its own, distinct
// from the blank region's.
func TestModuleRegionHashesDistinct(t *testing.T) {
	for _, b := range []struct {
		name string
		new  func() (*System, error)
	}{
		{"sys32", NewSys32},
		{"sys32x2", func() (*System, error) { return NewSys32N(2) }},
		{"sys64", NewSys64},
		{"sys64x2", func() (*System, error) { return NewSys64N(2) }},
	} {
		s := boot(t, b.new)
		for ri := range s.NumRegions() {
			seen := map[uint64]string{s.CM.RegionHash(s.RegionAt(ri)): "the blank region"}
			fits := 0
			for _, sp := range hwcore.Specs() {
				res := assemble(t, s, ri, sp)
				if res == nil {
					continue
				}
				fits++
				if other, dup := seen[res.RegionHash]; dup {
					t.Errorf("%s region %d: %s hashes like %s (%#016x)", b.name, ri, sp.Name, other, res.RegionHash)
				}
				seen[res.RegionHash] = sp.Name
			}
			if fits < 2 {
				t.Errorf("%s region %d: only %d modules fit", b.name, ri, fits)
			}
		}
	}
}
