package tasks

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bus"
	"repro/internal/cpu"
	"repro/internal/dock"
	"repro/internal/platform"
	"repro/internal/sim"
)

// The drivers' word loops as they ran before cpu.Feed, one instruction at
// a time: the references the drivers must match.

func plainJenkinsHW(s *platform.System, a JenkinsArgs) (uint32, error) {
	resetCore(s)
	c := s.CPU
	d := s.DockData()
	c.Call()
	c.Op(6)
	c.SW(d, uint32(a.KeyLen))
	c.SW(d, a.InitVal)
	addr := a.KeyAddr
	n := a.KeyLen
	for n >= 12 {
		for i := uint32(0); i < 12; i += 4 {
			v := c.LW(addr + i)
			c.SW(d, v<<24|v>>24|v<<8&0xFF0000|v>>8&0xFF00)
		}
		c.Op(6)
		c.Branch(true)
		addr += 12
		n -= 12
	}
	var tw [3]uint32
	tw[0] = leTail(c, addr, min(n, 4))
	if n > 4 {
		tw[1] = leTail(c, addr+4, min(n-4, 4))
	}
	if n > 8 {
		tw[2] = leTail(c, addr+8, n-8)
	}
	c.Op(6)
	c.SW(d, tw[0])
	c.SW(d, tw[1])
	c.SW(d, tw[2])
	c.Sync()
	v := c.LW(d)
	c.Ret()
	return v, nil
}

func plainSHA1HW(s *platform.System, a SHA1Args) ([5]uint32, error) {
	resetCore(s)
	c := s.CPU
	d := s.DockData()
	blocks, err := sha1Pad(s, a)
	if err != nil {
		return [5]uint32{}, err
	}
	c.Call()
	c.Op(30)
	for _, blockAddr := range blocks {
		for t := 0; t < 16; t++ {
			c.SW(d, c.LW(blockAddr+uint32(4*t)))
			c.Op(2)
			c.Branch(true)
		}
	}
	c.Sync()
	var h [5]uint32
	for i := range h {
		h[i] = c.LW(d)
		c.Op(1)
	}
	c.Ret()
	return h, nil
}

func plainTransferWrite(s *platform.System, n int) (sim.Time, error) {
	resetCore(s)
	c := s.CPU
	d := s.DockData()
	mem := s.MemBase() + 0x0010_0000
	c.Sync()
	start := s.Now()
	for i := 0; i < n; i++ {
		c.SW(d, c.LW(mem+uint32(4*i)))
		c.Op(4)
		c.Branch(true)
	}
	c.Sync()
	return (s.Now() - start) / sim.Time(n), nil
}

// boardState is everything a driver can move on a board: the kernel, the
// CPU, both buses, the bridge, both memories, and the data-path counters
// of region 0's dock and of the driven region's dock.
type boardState struct {
	now, next     sim.Time
	cpu           cpu.Stats
	plb, opb      [3]uint64
	bridge        [2]uint64
	mem, bram     [2]uint64
	dock0, docked [2]uint64
}

func dockCounts(tb testing.TB, s *platform.System, addr uint32) [2]uint64 {
	tb.Helper()
	t, err := s.PLB.Resolve(addr)
	if err != nil {
		tb.Fatal(err)
	}
	var n [2]uint64
	switch d := t.Slave.(type) {
	case *dock.OPBDock:
		n[0], n[1] = d.Stats()
	case *dock.PLBDock:
		n[0], n[1], _, _ = d.Stats()
	default:
		tb.Fatalf("%#x resolves to %s, not a dock", addr, t.Slave.Name())
	}
	return n
}

// stateOf reads a board's state, with docked the driven region's dock.
func stateOf(tb testing.TB, s *platform.System, docked uint32) boardState {
	tb.Helper()
	b := boardState{now: s.K.Now(), next: s.K.NextAt(), cpu: s.CPU.Stats()}
	b.plb[0], b.plb[1], b.plb[2] = s.PLB.Stats()
	b.opb[0], b.opb[1], b.opb[2] = s.OPB.Stats()
	b.bridge[0], b.bridge[1] = s.Bridge.Stats()
	b.mem[0], b.mem[1] = s.ExtMem.Stats()
	b.bram[0], b.bram[1] = s.BRAM.Stats()
	dock0 := uint32(platform.AddrDock32)
	if s.Is64 {
		dock0 = platform.AddrDock64
	}
	b.dock0 = dockCounts(tb, s, dock0)
	b.docked = dockCounts(tb, s, docked)
	return b
}

// feedBoard is one board of an equivalence pair: the driven region's
// dock, the board's state as the last driver started, and, for each event
// that fired, the time it was due and the state it found.
type feedBoard struct {
	s      *platform.System
	docked uint32
	before boardState
	due    []sim.Time
	seen   []boardState
}

func (b *feedBoard) state(tb testing.TB) boardState { return stateOf(tb, b.s, b.docked) }

// drive runs fn on region ri of the board inside ExecuteOn, with an event
// due off from the driver's start. The event records the board's state
// and, as a second bus master, posts a write to external memory.
func (b *feedBoard) drive(tb testing.TB, ri int, module string, off sim.Time, fn func(s *platform.System) (string, error)) string {
	tb.Helper()
	var out string
	if _, err := b.s.ExecuteOn(ri, module, func() (err error) {
		b.docked = b.s.DockBase()
		b.before = b.state(tb)
		due := b.s.Now() + off
		b.s.K.ScheduleAt(due, func() {
			b.due = append(b.due, due)
			b.seen = append(b.seen, b.state(tb))
			if _, err := b.s.PLB.WritePosted(b.s.MemBase()+runScratchOff, uint64(due), 4); err != nil {
				panic(err)
			}
		})
		out, err = fn(b.s)
		return err
	}); err != nil {
		tb.Fatalf("%s %s: %v", b.s.Name, module, err)
	}
	return out
}

// TestFeedMatchesPlainLoop: JenkinsHW at key lengths 0–40, 600, 601 and
// 4,000 bytes, and TransferCPU's write loop over 1, 2, 3 and 4,096 words,
// on NewSys32 (where cpu.Feed advances repeated groups in closed form),
// NewSys64 (cached DDR and the PLB Dock: group by group) and region 1 of
// NewSys32N(2), and SHA1HW on NewSys64, must each leave a board as the
// same driver with its word loop one instruction at a time does: results,
// kernel time and next event, CPU, bus, bridge, memory and dock counters,
// and the states that an event due mid-feed found, at its own time. On
// region 1, the words reach region 1's circuit and region 0's dock
// counters do not move.
func TestFeedMatchesPlainLoop(t *testing.T) {
	type input struct {
		module string
		off    sim.Time // when the event falls due after the driver starts
		feed   func(s *platform.System) (string, error)
		plain  func(s *platform.System) (string, error)
	}
	jenkins := func(n int, seed int64) input {
		key := make([]byte, n)
		rand.New(rand.NewSource(seed)).Read(key)
		a := JenkinsArgs{KeyLen: n, InitVal: uint32(seed)}
		run := func(hw func(*platform.System, JenkinsArgs) (uint32, error)) func(s *platform.System) (string, error) {
			return func(s *platform.System) (string, error) {
				a.KeyAddr = s.MemBase() + runInputOff
				if err := s.WriteMem(a.KeyAddr, key); err != nil {
					return "", err
				}
				v, err := hw(s, a)
				return fmt.Sprintf("jenkins/%dB %#x", n, v), err
			}
		}
		return input{"jenkins", sim.Time(n)*8*sim.Nanosecond + 3, run(JenkinsHW), run(plainJenkinsHW)}
	}
	transfer := func(n int) input {
		run := func(tr func(*platform.System) (sim.Time, error)) func(s *platform.System) (string, error) {
			return func(s *platform.System) (string, error) {
				per, err := tr(s)
				return fmt.Sprintf("transfer/%dw %v", n, per), err
			}
		}
		return input{"passthrough", sim.Time(n)*200*sim.Nanosecond + 3,
			run(func(s *platform.System) (sim.Time, error) { return TransferCPU(s, TransferWrite, n) }),
			run(func(s *platform.System) (sim.Time, error) { return plainTransferWrite(s, n) })}
	}
	sha := func(n int, seed int64) input {
		msg := make([]byte, n)
		rand.New(rand.NewSource(seed)).Read(msg)
		run := func(hw func(*platform.System, SHA1Args) ([5]uint32, error)) func(s *platform.System) (string, error) {
			return func(s *platform.System) (string, error) {
				a := SHA1Args{MsgAddr: s.MemBase() + runInputOff, MsgLen: n, PadAddr: s.MemBase() + runScratchOff + 0x100}
				if err := s.WriteMem(a.MsgAddr, msg); err != nil {
					return "", err
				}
				h, err := hw(s, a)
				return fmt.Sprintf("sha1/%dB %x", n, h), err
			}
		}
		return input{"sha1", sim.Time(n)*8*sim.Nanosecond + 3, run(SHA1HW), run(plainSHA1HW)}
	}

	var common []input
	for n := 0; n <= 40; n++ {
		common = append(common, jenkins(n, int64(n)))
	}
	common = append(common, jenkins(600, 41), jenkins(601, 42), jenkins(4000, 43))
	for _, n := range []int{1, 2, 3, 4096} {
		common = append(common, transfer(n))
	}
	var sha1s []input
	for i, n := range []int{0, 1, 55, 56, 64, 200, 1000} {
		sha1s = append(sha1s, sha(n, int64(i)))
	}

	for _, b := range []struct {
		name   string
		mk     func() (*platform.System, error)
		region int
		inputs []input
	}{
		{"sys32", platform.NewSys32, 0, common},
		{"sys64", platform.NewSys64, 0, append(common, sha1s...)},
		{"sys32x2/region1", func() (*platform.System, error) { return platform.NewSys32N(2) }, 1, common},
	} {
		t.Run(b.name, func(t *testing.T) {
			var pair [2]*feedBoard
			for i := range pair {
				s, err := b.mk()
				if err != nil {
					t.Fatal(err)
				}
				pair[i] = &feedBoard{s: s}
			}
			ref, got := pair[0], pair[1]
			for _, in := range b.inputs {
				want := ref.drive(t, b.region, in.module, in.off, in.plain)
				have := got.drive(t, b.region, in.module, in.off, in.feed)
				if have != want {
					t.Fatalf("%s: Feed gave %q, the plain loop %q", want, have, want)
				}
				a, c := ref.state(t), got.state(t)
				if a != c {
					t.Fatalf("%s: Feed state differs from the plain loop:\n plain %+v\n Feed  %+v", want, a, c)
				}
				if !slices.Equal(ref.seen, got.seen) {
					t.Fatalf("%s: the events found different states:\n plain %+v\n Feed  %+v", want, ref.seen, got.seen)
				}
				if before := got.before; b.region != 0 && (c.dock0 != before.dock0 || c.docked[0] == before.docked[0]) {
					t.Fatalf("%s: region 0's dock moved %v → %v, region %d's %v → %v",
						want, before.dock0, c.dock0, b.region, before.docked, c.docked)
				}
			}
			for i, s := range got.seen {
				if s.now != got.due[i] {
					t.Fatalf("event %d fired at %v, want %v", i, s.now, got.due[i])
				}
			}
			if len(got.seen) < len(b.inputs)/2 {
				t.Fatalf("%d of %d events fired", len(got.seen), len(b.inputs))
			}
		})
	}

	// The closed form's precondition on the 32-bit board: its SRAM reads
	// words in bulk and its OPB Dock has plain timing.
	s, err := platform.NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	src, err1 := s.PLB.Resolve(s.MemBase())
	dst, err2 := s.PLB.Resolve(s.DockData())
	_, reader := src.Slave.(bus.WordReader)
	_, plain := dst.Slave.(bus.PlainSlave)
	if err1 != nil || err2 != nil || !reader || !plain {
		t.Fatalf("NewSys32: source %s (bulk reader %v, %v), dock %s (plain %v, %v)",
			src.Slave.Name(), reader, err1, dst.Slave.Name(), plain, err2)
	}
}
