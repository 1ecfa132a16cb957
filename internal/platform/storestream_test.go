package platform_test

import (
	"slices"
	"testing"

	"repro/internal/bitlinker"
	"repro/internal/bitstream"
	"repro/internal/cpu"
	"repro/internal/fabric"
	"repro/internal/hwcore"
	"repro/internal/icap"
	"repro/internal/plan"
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

// differential builds region ri's differential configuration from one
// module to another, over a system that has not been reconfigured yet,
// with at most perPacket frames in each FDRI packet. The assembler's own
// differential between two modules is one packet: the frames that differ
// lie side by side.
func differential(t *testing.T, s *System, ri int, from, to hwcore.Spec, perPacket int) *bitstream.Stream {
	t.Helper()
	area := s.Floorplan.Areas[ri]
	asm, err := bitlinker.New(s.Dev, area.R, s.CM.Clone(), area.Macro)
	if err != nil {
		t.Fatal(err)
	}
	target := func(sp hwcore.Spec) *fabric.ConfigMemory {
		comp, err := hwcore.BuildComponent(sp, s.Dev, area.R, area.Macro)
		if err != nil {
			t.Fatal(err)
		}
		return asm.Target(bitlinker.Placed{C: comp, ColOff: area.R.W - comp.W})
	}
	have, want := target(from), target(to)
	var runs []bitstream.FrameRun
	last := -2
	for i := range s.Dev.NumFrames() {
		far, err := s.Dev.FARAt(i)
		if err != nil {
			t.Fatal(err)
		}
		h, _ := have.ReadFrame(far)
		w, _ := want.ReadFrame(far)
		if slices.Equal(h, w) {
			continue
		}
		if i != last+1 || len(runs[len(runs)-1].Frames) == perPacket {
			runs = append(runs, bitstream.FrameRun{Start: far})
		}
		runs[len(runs)-1].Frames = append(runs[len(runs)-1].Frames, w)
		last = i
	}
	if len(runs) < 2 {
		t.Fatalf("%s to %s differs in %d packets of at most %d frames, want several", from.Name, to.Name, len(runs), perPacket)
	}
	st, err := bitstream.Build(s.Dev, runs)
	if err != nil {
		t.Fatal(err)
	}
	return st
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
	inert                 int
	loaderErr             string
	module                string
}

func stateOf(s *System) boardState {
	st := boardState{now: s.K.Now(), cpu: s.CPU.Stats(), icapWords: s.ICAP.WordsWritten(),
		inert: s.ICAP.Loader().Inert(), module: s.CurrentModule()}
	st.plb[0], st.plb[1], st.plb[2] = s.PLB.Stats()
	st.opb[0], st.opb[1], st.opb[2] = s.OPB.Stats()
	st.bridge[0], st.bridge[1] = s.Bridge.Stats()
	st.frames, st.configs, st.crcs = s.ICAP.Loader().Stats()
	if err := s.ICAP.Loader().Err(); err != nil {
		st.loaderErr = err.Error()
	}
	return st
}

// tail reads the HWICAP status, stores two more words one SW at a time and
// reads it again. A busy-until mark or post-queue entry a stream left
// wrong shows in the time these take or in the busy bit.
func tail(s *System) [2]uint32 {
	first := s.CPU.LW(AddrICAP + icap.RegStatus)
	s.CPU.SW(AddrICAP+icap.RegWriteFIFO, bitstream.DummyWord)
	s.CPU.SW(AddrICAP+icap.RegWriteFIFO, bitstream.DummyWord)
	return [2]uint32{first, s.CPU.LW(AddrICAP + icap.RegStatus)}
}

// TestStoreStreamMatchesPerWordSWOnBoards: on both boards the CPU's stores
// to the HWICAP are guarded, so each one blocks across the PLB, the bridge
// and the OPB. Pushing a stream with cpu.StoreStream must leave the board
// exactly as one SW per word does, for a module's complete stream, its
// compressed container through the armed decoder, a stream that fails its
// CRC check mid-way, and a multi-packet differential stream to another
// module. An event due mid-stream, which also posts a write to the HWICAP
// control register as a second bus master, must find both boards in the
// same state, and a status read, two more stores and another read must
// then take the same time and read the same status.
func TestStoreStreamMatchesPerWordSWOnBoards(t *testing.T) {
	const mid = 300*sim.Microsecond + 7 // inside every case's stream
	for _, b := range boards {
		s := boot(t, b.new)
		res := assemble(t, s, 0, spec(t, "brightness"))
		z, err := bitstream.Compress(s.Dev, res.Stream, nil, res.Frames)
		if err != nil {
			t.Fatal(err)
		}
		bad := slices.Clone(res.Stream.Words)
		bad[len(bad)/2] ^= 1 << 11
		diff := differential(t, s, 0, spec(t, "brightness"), spec(t, "blend"), 16).Words
		for _, tc := range []struct {
			name       string
			before     []uint32 // stored one SW per word on both boards first
			words      []uint32
			compressed bool
			module     string
		}{
			{"complete", nil, res.Stream.Words, false, "brightness"},
			{"compressed", nil, z.Words, true, "brightness"},
			{"fails mid-way", nil, bad, false, ""},
			{"differential", res.Stream.Words, diff, false, "blend"},
		} {
			t.Run(b.name+"/"+tc.name, func(t *testing.T) {
				ref, got := boot(t, b.new), boot(t, b.new)
				var seen [2][]boardState
				for i, sys := range []*System{ref, got} {
					for _, w := range tc.before {
						sys.CPU.SW(AddrICAP+icap.RegWriteFIFO, w)
					}
					if tc.compressed {
						sys.ICAP.ArmDecoder()
					}
					sys.K.Schedule(mid, func() {
						seen[i] = append(seen[i], stateOf(sys))
						if _, err := sys.PLB.WritePosted(AddrICAP+icap.RegControl, 0, 4); err != nil {
							panic(err)
						}
					})
				}
				for _, w := range tc.words {
					ref.CPU.SW(AddrICAP+icap.RegWriteFIFO, w)
				}
				got.CPU.StoreStream(AddrICAP+icap.RegWriteFIFO, tc.words, nil, 0)
				if tc.compressed {
					if e1, e2 := ref.ICAP.DisarmDecoder(), got.ICAP.DisarmDecoder(); e1 != nil || e2 != nil {
						t.Fatalf("container rejected: per-word %v, stream %v", e1, e2)
					}
				}
				if a, g := tail(ref), tail(got); a != g {
					t.Fatalf("status after the stream: per-word %#x, stream %#x", a, g)
				}
				ref.CPU.Sync()
				got.CPU.Sync()
				a, g := stateOf(ref), stateOf(got)
				if a != g {
					t.Fatalf("StoreStream differs from per-word SW:\n per-word %+v\n stream   %+v", a, g)
				}
				if a.module != tc.module || (a.loaderErr != "") != (tc.module == "") {
					t.Fatalf("region 0 holds %q with loader error %q, want %q", a.module, a.loaderErr, tc.module)
				}
				if len(seen[0]) != 1 || seen[0][0].icapWords >= a.icapWords-2 {
					t.Fatalf("the event found %+v, want one state mid-stream", seen[0])
				}
				if !slices.Equal(seen[0], seen[1]) {
					t.Fatalf("the event found different states:\n per-word %+v\n stream   %+v", seen[0], seen[1])
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

// TestCPUPathCostPerWord: on the CPU-store path every word of a plain
// stream costs the same. The SW takes one CPU cycle, then the guarded
// store blocks for its PLB transaction: 4 bus cycles, which are 2 of
// arbitration and address, 1 data beat and the bridge's 1 handshake cycle.
// The OPB transfer behind the bridge (2 + 1 + the HWICAP's 1 wait cycle)
// and the port's drain (4 ICAP cycles, a byte per cycle) keep pace, so
// nothing queues. A load then pays a fixed tail: the Sync's CPU cycle and
// one status poll, an LW's CPU cycle and 12 bus cycles for the bridged
// read. So n words take n·(85.000 ns) plus 250 ns on Sys32 and
// n·(43.333 ns) plus 126.667 ns on Sys64, complete or differential.
func TestCPUPathCostPerWord(t *testing.T) {
	for _, b := range []struct {
		name    string
		new     func() (*System, error)
		perWord sim.Time
	}{
		{"sys32", NewSys32, 85 * sim.Nanosecond},
		{"sys64", NewSys64, 43_333_333},
		{"sys64x2", func() (*System, error) { return NewSys64N(2) }, 43_333_333},
	} {
		s := boot(t, b.new)
		cpuCycle, busCycle := s.CPUClk.Period(), s.BusClk.Period()
		if c := cpuCycle + 4*busCycle; c != b.perWord {
			t.Fatalf("%s: a word costs %v, want %v", b.name, c, b.perWord)
		}
		tail := 2*cpuCycle + 12*busCycle
		for _, load := range []struct {
			module string
			kind   plan.StreamKind
		}{
			{"brightness", plan.StreamComplete},
			{"blend", plan.StreamDifferential},
			{"brightness", plan.StreamDifferential},
			{"blend", plan.StreamComplete},
		} {
			s.SetPlanning(load.kind != plan.StreamComplete)
			rep, err := s.LoadModuleOn(0, load.module, nil)
			if err != nil {
				t.Fatal(err)
			}
			words := sim.Time(rep.Bytes / 4)
			if rep.Kind != load.kind || rep.Time != words*b.perWord+tail {
				t.Errorf("%s: %s load of %s took %v for %d words, want a %s load taking %v",
					b.name, rep.Kind, load.module, rep.Time, words, load.kind, words*b.perWord+tail)
			}
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
