package bus

import (
	"runtime"
	"testing"

	"repro/internal/memctl"
	"repro/internal/sim"
)

func testBus(k *sim.Kernel, width int) *Bus {
	clk := sim.NewClock("bus", 50_000_000) // 20 ns cycles
	return New("test", k, clk, width, Params{ArbCycles: 2, ReadExtra: 1, WriteExtra: 0, BeatCycles: 1})
}

func TestMappingAndDecode(t *testing.T) {
	k := sim.NewKernel()
	b := testBus(k, 4)
	m := memctl.NewBRAM(1 << 16)
	if err := b.Map(0x1000_0000, 1<<16, m); err != nil {
		t.Fatal(err)
	}
	if err := b.Map(0x1000_8000, 1<<16, memctl.NewBRAM(16)); err == nil {
		t.Fatal("overlapping mapping accepted")
	}
	if err := b.Map(0x2000_0000, 0, memctl.NewBRAM(16)); err == nil {
		t.Fatal("empty mapping accepted")
	}
	if _, err := b.Read(0x3000_0000, 4); err == nil {
		t.Fatal("unmapped read did not bus-error")
	}
	if err := b.Write(0x1000_0000, 0xDEADBEEF, 4); err != nil {
		t.Fatal(err)
	}
	v, err := b.Read(0x1000_0000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEF {
		t.Fatalf("readback = %#x", v)
	}
}

func TestAccessSizeRules(t *testing.T) {
	k := sim.NewKernel()
	b32 := testBus(k, 4)
	if err := b32.Map(0, 1<<16, memctl.NewBRAM(1<<16)); err != nil {
		t.Fatal(err)
	}
	if _, err := b32.Read(0, 8); err == nil {
		t.Fatal("64-bit read on 32-bit bus accepted")
	}
	if _, err := b32.Read(0, 3); err == nil {
		t.Fatal("3-byte access accepted")
	}
	b64 := testBus(sim.NewKernel(), 8)
	if err := b64.Map(0, 1<<16, memctl.NewBRAM(1<<16)); err != nil {
		t.Fatal(err)
	}
	if _, err := b64.Read(0, 8); err != nil {
		t.Fatalf("64-bit read on 64-bit bus rejected: %v", err)
	}
}

func TestSingleTransferTiming(t *testing.T) {
	k := sim.NewKernel()
	b := testBus(k, 4)
	mem := memctl.New("m", 1<<16, 4, 3, -1) // 4 read waits, 3 write waits
	if err := b.Map(0, 1<<16, mem); err != nil {
		t.Fatal(err)
	}
	// Read: arb 2 + waits 4 + extra 1 + 1 beat = 8 cycles = 160 ns.
	start := k.Now()
	if _, err := b.Read(0, 4); err != nil {
		t.Fatal(err)
	}
	if d := k.Now() - start; d != 160*sim.Nanosecond {
		t.Errorf("read took %v, want 160ns", d)
	}
	// Write: arb 2 + waits 3 + 1 beat = 6 cycles = 120 ns.
	start = k.Now()
	if err := b.Write(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	if d := k.Now() - start; d != 120*sim.Nanosecond {
		t.Errorf("write took %v, want 120ns", d)
	}
}

func TestContentionSerializes(t *testing.T) {
	k := sim.NewKernel()
	b := testBus(k, 4)
	mem := memctl.New("m", 1<<16, 4, 3, -1)
	if err := b.Map(0, 1<<16, mem); err != nil {
		t.Fatal(err)
	}
	// A posted write occupies the bus; a following read must queue.
	if _, err := b.WritePosted(0, 1, 4); err != nil {
		t.Fatal(err)
	}
	start := k.Now()
	if _, err := b.Read(0, 4); err != nil {
		t.Fatal(err)
	}
	// write holds 120 ns, then the 160 ns read.
	if d := k.Now() - start; d != 280*sim.Nanosecond {
		t.Errorf("queued read took %v, want 280ns", d)
	}
}

func TestBurstTiming(t *testing.T) {
	k := sim.NewKernel()
	b := testBus(k, 8)
	ddr := memctl.New("ddr", 1<<20, 6, 2, 6)
	if err := b.Map(0, 1<<20, ddr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		ddr.PokeBE(uint32(8*i), uint64(i)<<32|uint64(i), 8)
	}
	data, done, err := b.BurstRead(0, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		if v != uint64(i)<<32|uint64(i) {
			t.Fatalf("beat %d = %#x", i, v)
		}
	}
	// arb 2 + burst waits 6 + extra 1 + 16 beats = 25 cycles = 500 ns.
	if done != 500*sim.Nanosecond {
		t.Errorf("burst read completes at %v, want 500ns", done)
	}
	// Burst on a non-burst slave is rejected.
	sram := memctl.NewSRAM()
	b2 := testBus(sim.NewKernel(), 4)
	if err := b2.Map(0, 1<<20, sram); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b2.BurstRead(0, 4); err != nil {
		t.Fatal("SRAM degrades to per-beat waits via BurstWaits; burst read should still work through the BurstSlave interface")
	}
}

func TestBurstBoundaryChecks(t *testing.T) {
	k := sim.NewKernel()
	b := testBus(k, 8)
	if err := b.Map(0, 128, memctl.NewBRAM(128)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.BurstRead(64, 16); err == nil {
		t.Fatal("burst past mapping end accepted")
	}
	if _, _, err := b.BurstRead(0, 0); err == nil {
		t.Fatal("empty burst accepted")
	}
	if _, err := b.BurstWrite(64, make([]uint64, 16)); err == nil {
		t.Fatal("burst write past mapping end accepted")
	}
}

func TestPeekPokeHaveNoTimingEffect(t *testing.T) {
	k := sim.NewKernel()
	b := testBus(k, 4)
	if err := b.Map(0, 1<<16, memctl.NewBRAM(1<<16)); err != nil {
		t.Fatal(err)
	}
	if err := b.Poke(0x10, 0xABCD, 4); err != nil {
		t.Fatal(err)
	}
	v, err := b.Peek(0x10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xABCD {
		t.Fatalf("peek = %#x", v)
	}
	if k.Now() != 0 {
		t.Fatal("peek/poke advanced time")
	}
	// The bus is still free: a write (arb 2 + 0 BRAM waits + 1 beat = 3
	// cycles) completes 60 ns from now, with no wait behind the poke.
	if err := b.Write(0x10, 1, 4); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 60*sim.Nanosecond {
		t.Fatalf("write after peek/poke completed at %v, want 60ns", k.Now())
	}

	// Behind the bridge, Peek and Poke reach the OPB slave directly: the
	// OPB, the bridge's post queue and its counts are left as they were,
	// so a bridged read takes as long as on an untouched rig.
	bridged := func() (*sim.Kernel, *Bus, *Bus, *Bridge) {
		k := sim.NewKernel()
		clk := sim.NewClock("c", 50_000_000)
		plb := New("plb", k, clk, 8, Params{ArbCycles: 2, ReadExtra: 2, BeatCycles: 1})
		opb := New("opb", k, clk, 4, Params{ArbCycles: 2, ReadExtra: 1, BeatCycles: 1})
		if err := opb.Map(0, 1<<20, memctl.NewSRAM()); err != nil {
			t.Fatal(err)
		}
		br := NewBridge(plb, opb, 0, 1, 2)
		if err := plb.Map(0x2000_0000, 1<<20, br); err != nil {
			t.Fatal(err)
		}
		return k, plb, opb, br
	}
	k0, plb0, _, _ := bridged()
	if _, err := plb0.Read(0x2000_0100, 4); err != nil {
		t.Fatal(err)
	}
	k, plb, opb, br := bridged()
	if err := plb.Poke(0x2000_0100, 0x1234, 4); err != nil {
		t.Fatal(err)
	}
	if v, err := plb.Peek(0x2000_0100, 4); err != nil || v != 0x1234 {
		t.Fatalf("bridged peek = %#x, %v; want 0x1234", v, err)
	}
	rd, wr := br.Stats()
	ord, owr, _ := opb.Stats()
	if k.Now() != 0 || rd != 0 || wr != 0 || ord != 0 || owr != 0 {
		t.Fatalf("bridged peek/poke: now %v, bridge %d reads %d writes, OPB %d reads %d writes; want all 0",
			k.Now(), rd, wr, ord, owr)
	}
	if v, err := plb.Read(0x2000_0100, 4); err != nil || v != 0x1234 {
		t.Fatalf("bridged read = %#x, %v", v, err)
	}
	if k.Now() != k0.Now() {
		t.Fatalf("bridged read after peek/poke completed at %v, want %v as on an untouched rig", k.Now(), k0.Now())
	}
}

func TestBridgeReadSlowerThanDirect(t *testing.T) {
	k := sim.NewKernel()
	plbClk := sim.NewClock("plb", 50_000_000)
	opbClk := sim.NewClock("opb", 50_000_000)
	plb := New("plb", k, plbClk, 8, Params{ArbCycles: 2, ReadExtra: 2, BeatCycles: 1})
	opb := New("opb", k, opbClk, 4, Params{ArbCycles: 2, ReadExtra: 1, BeatCycles: 1})
	sram := memctl.NewSRAM()
	if err := opb.Map(0, 1<<20, sram); err != nil {
		t.Fatal(err)
	}
	br := NewBridge(plb, opb, 0, 1, 1)
	if err := plb.Map(0x2000_0000, 1<<20, br); err != nil {
		t.Fatal(err)
	}
	sram.PokeBE(0x100, 0x1234, 4)

	start := k.Now()
	v, err := plb.Read(0x2000_0100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1234 {
		t.Fatalf("bridged read = %#x", v)
	}
	bridged := k.Now() - start

	// Direct OPB read of the same SRAM: arb2+waits4+extra1+beat1 = 8 cycles.
	start = k.Now()
	if _, err := opb.Read(0x100, 4); err != nil {
		t.Fatal(err)
	}
	direct := k.Now() - start
	if bridged <= direct {
		t.Errorf("bridged read (%v) not slower than direct (%v)", bridged, direct)
	}
	rd, _ := br.Stats()
	if rd != 1 {
		t.Errorf("bridge read count = %d", rd)
	}
}

func TestBridgePostedWrites(t *testing.T) {
	k := sim.NewKernel()
	plbClk := sim.NewClock("plb", 50_000_000)
	plb := New("plb", k, plbClk, 8, Params{ArbCycles: 2, ReadExtra: 2, BeatCycles: 1})
	opb := New("opb", k, plbClk, 4, Params{ArbCycles: 2, ReadExtra: 1, BeatCycles: 1})
	sram := memctl.NewSRAM()
	if err := opb.Map(0, 1<<20, sram); err != nil {
		t.Fatal(err)
	}
	br := NewBridge(plb, opb, 0, 1, 2)
	if err := plb.Map(0x2000_0000, 1<<20, br); err != nil {
		t.Fatal(err)
	}
	// First write is posted: PLB-side cost is small.
	start := k.Now()
	if err := plb.Write(0x2000_0000, 7, 4); err != nil {
		t.Fatal(err)
	}
	first := k.Now() - start
	// Saturating the post queue forces stalls: issue several back to back.
	var last sim.Time
	for i := 0; i < 6; i++ {
		start = k.Now()
		if err := plb.Write(0x2000_0000+uint32(4*i), uint64(i), 4); err != nil {
			t.Fatal(err)
		}
		last = k.Now() - start
	}
	if last <= first {
		t.Errorf("saturated posted write (%v) not slower than first (%v)", last, first)
	}
	// A read after posted writes must see them drained first (ordering).
	sram.PokeBE(0x500, 42, 4)
	v, err := plb.Read(0x2000_0500, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("read-after-write = %d", v)
	}
}

func TestBridge64BitSplit(t *testing.T) {
	k := sim.NewKernel()
	clk := sim.NewClock("c", 50_000_000)
	plb := New("plb", k, clk, 8, Params{ArbCycles: 2, ReadExtra: 2, BeatCycles: 1})
	opb := New("opb", k, clk, 4, Params{ArbCycles: 2, ReadExtra: 1, BeatCycles: 1})
	sram := memctl.NewSRAM()
	if err := opb.Map(0, 1<<20, sram); err != nil {
		t.Fatal(err)
	}
	br := NewBridge(plb, opb, 0, 1, 2)
	if err := plb.Map(0x2000_0000, 1<<20, br); err != nil {
		t.Fatal(err)
	}
	if err := plb.Write(0x2000_0000, 0x1122334455667788, 8); err != nil {
		t.Fatal(err)
	}
	v, err := plb.Read(0x2000_0000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x1122334455667788 {
		t.Fatalf("64-bit bridged roundtrip = %#x", v)
	}
	// Each access is narrowed into two OPB transfers, and the bridge counts
	// exactly those.
	if rd, wr := br.Stats(); rd != 2 || wr != 2 {
		t.Errorf("bridge counts %d reads, %d writes, want 2 and 2", rd, wr)
	}
	if rd, wr, _ := opb.Stats(); rd != 2 || wr != 2 {
		t.Errorf("OPB counts %d reads, %d writes, want 2 and 2", rd, wr)
	}
}

// Steady-state posted writes reuse the queue's backing array. Re-slicing
// from the front would shrink its capacity until append reallocates every
// few writes. testing.AllocsPerRun rounds such a fractional rate down to
// zero, so the test counts mallocs over the whole run.
func TestBridgePostedWritesDoNotAllocate(t *testing.T) {
	k := sim.NewKernel()
	clk := sim.NewClock("c", 50_000_000)
	plb := New("plb", k, clk, 8, Params{ArbCycles: 2, ReadExtra: 2, BeatCycles: 1})
	opb := New("opb", k, clk, 4, Params{ArbCycles: 2, ReadExtra: 1, BeatCycles: 1})
	if err := opb.Map(0, 1<<20, memctl.NewSRAM()); err != nil {
		t.Fatal(err)
	}
	br := NewBridge(plb, opb, 0, 1, 4)
	if err := plb.Map(0x2000_0000, 1<<20, br); err != nil {
		t.Fatal(err)
	}
	write := func(n int) {
		for i := 0; i < n; i++ {
			if err := plb.Write(0x2000_0000+uint32(4*(i%16)), uint64(i), 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(100) // warm up: SRAM pages and the queue's first array
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	write(10_000)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n > 100 {
		t.Errorf("10000 posted writes made %d mallocs, want at most 100", n)
	}
}
