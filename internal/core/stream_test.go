package core

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/bitlinker"
	"repro/internal/bitstream"
	"repro/internal/bus"
	"repro/internal/cpu"
	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/icap"
	"repro/internal/region"
	"repro/internal/sim"
)

// pushPerWord is push as one SW per word, with stop polled before every
// abortCheckWords-th word: the loop the chunked push must match.
func pushPerWord(m *Manager, words []uint32, stop func() bool) int {
	for i, w := range words {
		if stop != nil && i > 0 && i%abortCheckWords == 0 && stop() {
			return i
		}
		m.cfg.CPU.SW(m.cfg.ICAPBase+icap.RegWriteFIFO, w)
	}
	return len(words)
}

// pushRig is one posted-store rig with alpha registered.
type pushRig struct {
	m   *Manager
	plb *bus.Bus
}

func newPushRig(t *testing.T) pushRig {
	t.Helper()
	cm := fabric.NewConfigMemory(fabric.XC2VP7())
	cm.Guard(fabric.DynamicRegion32())
	cfg, _, plb := rigConfig(t, cm)
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := register(m, testComponent("alpha", cfg.Region), func() hw.Core { return &testCore{id: 1} }); err != nil {
		t.Fatal(err)
	}
	return pushRig{m: m, plb: plb}
}

// pushState is everything a push can move apart from the frames.
type pushState struct {
	now                   sim.Time
	cpu                   cpu.Stats
	plb                   [3]uint64
	icapWords             uint64
	frames, configs, crcs uint64
	loaderErr             string
	current               string
	resident              bool
}

func (r pushRig) state() pushState {
	cfg := r.m.cfg
	s := pushState{now: cfg.Kernel.Now(), cpu: cfg.CPU.Stats(), icapWords: cfg.ICAP.WordsWritten()}
	s.plb[0], s.plb[1], s.plb[2] = r.plb.Stats()
	s.frames, s.configs, s.crcs = cfg.Loader.Stats()
	if err := cfg.Loader.Err(); err != nil {
		s.loaderErr = err.Error()
	}
	s.current, s.resident = r.m.ResidentState()
	return s
}

// tail reads the HWICAP status, stores two more words one SW at a time and
// reads it again. A busy-until mark or post-queue entry a push left wrong
// shows in the time these take or in the busy bit.
func (r pushRig) tail() [2]uint32 {
	cfg := r.m.cfg
	first := cfg.CPU.LW(cfg.ICAPBase + icap.RegStatus)
	cfg.CPU.SW(cfg.ICAPBase+icap.RegWriteFIFO, bitstream.DummyWord)
	cfg.CPU.SW(cfg.ICAPBase+icap.RegWriteFIFO, bitstream.DummyWord)
	return [2]uint32{first, cfg.CPU.LW(cfg.ICAPBase + icap.RegStatus)}
}

// sameFrames reports whether two configuration memories hold equal frames.
func sameFrames(t *testing.T, a, b *fabric.ConfigMemory) bool {
	t.Helper()
	dev := a.Device()
	for i := range dev.NumFrames() {
		far, err := dev.FARAt(i)
		if err != nil {
			t.Fatal(err)
		}
		fa, _ := a.ReadFrame(far)
		fb, _ := b.ReadFrame(far)
		if !slices.Equal(fa, fb) {
			return false
		}
	}
	return true
}

// TestPushMatchesPerWordStores: the chunked push leaves a rig whose CPU
// posts its HWICAP stores exactly as one SW per word does — kernel time,
// CPU, bus, HWICAP and loader counters, configuration memory, the
// region's binding, and the time and status of a status read, two more
// stores and another read — for a complete stream, a compressed
// container through the armed decoder, a stream that fails its CRC check
// mid-way and a stream aborted at a chunk boundary.
func TestPushMatchesPerWordStores(t *testing.T) {
	complete := func(m *Manager) []uint32 { return m.Module("alpha").Complete().Stream.Words }
	cases := []struct {
		name       string
		words      func(m *Manager) []uint32
		compressed bool
		stopAt     int // stop trips on this poll; 0 never stops
		pushed     int // words pushed, 0 for all of them
		fails      bool
	}{
		{name: "complete", words: complete},
		{name: "compressed", compressed: true, words: func(m *Manager) []uint32 {
			z, err := m.compressedFull("alpha")
			if err != nil {
				t.Fatal(err)
			}
			return z.Words
		}},
		{name: "fails mid-way", words: func(m *Manager) []uint32 {
			w := slices.Clone(complete(m))
			w[len(w)/2] ^= 1 << 4
			return w
		}, fails: true},
		{name: "aborted at a chunk boundary", words: complete, stopAt: 3, pushed: 3 * abortCheckWords},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, got := newPushRig(t), newPushRig(t)
			words := tc.words(ref.m)
			stop := func() func() bool {
				if tc.stopAt == 0 {
					return nil
				}
				return stopAfter(tc.stopAt)
			}
			if tc.compressed {
				ref.m.cfg.ICAP.ArmDecoder()
				got.m.cfg.ICAP.ArmDecoder()
			}
			nRef, nGot := pushPerWord(ref.m, words, stop()), got.m.push(words, stop())
			want := tc.pushed
			if want == 0 {
				want = len(words)
			}
			if nRef != want || nGot != want {
				t.Fatalf("pushed %d words per word and %d chunked, want %d", nRef, nGot, want)
			}
			if tc.compressed {
				if a, b := ref.m.cfg.ICAP.DisarmDecoder(), got.m.cfg.ICAP.DisarmDecoder(); a != nil || b != nil {
					t.Fatalf("container rejected: per-word %v, chunked %v", a, b)
				}
			}
			if a, b := ref.tail(), got.tail(); a != b {
				t.Fatalf("status after the push: per-word %#x, chunked %#x", a, b)
			}
			ref.m.cfg.CPU.Sync()
			got.m.cfg.CPU.Sync()
			if a, b := ref.state(), got.state(); a != b {
				t.Fatalf("chunked push differs from per-word stores:\n per-word %+v\n chunked  %+v", a, b)
			}
			if st := ref.state(); st.cpu.PostedStalls == 0 {
				t.Error("the stores never filled the write buffer: the posted path went untested")
			} else if (st.loaderErr != "") != tc.fails {
				t.Errorf("loader error %q, want one: %v", st.loaderErr, tc.fails)
			}
			if !sameFrames(t, ref.m.cfg.ConfigMem, got.m.cfg.ConfigMem) {
				t.Fatal("chunked push left different configuration frames")
			}
		})
	}
}

// dualRig builds two managers over the halves of the paper's 32-bit
// dynamic area, sharing one configuration memory, loader, CPU and HWICAP,
// each with two modules registered (a1, a2 and b1, b2).
func dualRig(t *testing.T) (a, b *Manager) {
	t.Helper()
	fp, err := region.Default(false, 2)
	if err != nil {
		t.Fatal(err)
	}
	cm := fabric.NewConfigMemory(fabric.XC2VP7())
	cm.Guard(fp.Regions()...)
	cfg, _, _ := rigConfig(t, cm)
	var mgrs [2]*Manager
	for i, area := range fp.Areas {
		c := cfg
		c.Region = area.R
		c.Bind = func(hw.Core) {}
		asm, err := bitlinker.New(cfg.Device, area.R, cfg.Memo.baseline, area.Macro)
		if err != nil {
			t.Fatal(err)
		}
		c.Memo = NewMemo(asm, cfg.Memo.baseline)
		if mgrs[i], err = NewManager(c); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"1", "2"} {
			name = string(rune('a'+i)) + name
			w := min(6, area.R.W)
			comp := &bitlinker.Component{
				Name: name, Version: "1", W: w, H: area.R.H,
				Resources: fabric.Resources{Slices: 100},
				Macro:     area.Macro, PortRow0: area.Macro.Row0,
				CLBFrames: bitlinker.SynthesizeFrames(name, "1", w, area.R.H),
			}
			if err := register(mgrs[i], comp, func() hw.Core { return &testCore{} }); err != nil {
				t.Fatal(err)
			}
		}
	}
	return mgrs[0], mgrs[1]
}

// TestSiblingLoadDemotesUpsetRegion: a sibling's stream writes none of a
// region's frames, so rebind keeps the region's binding without hashing
// it — but an upset injected into the region since its last hash must
// still demote it at the sibling's rebind, as a rebind that always hashes
// does.
func TestSiblingLoadDemotesUpsetRegion(t *testing.T) {
	for _, upset := range []bool{false, true} {
		a, b := dualRig(t)
		var demotions []string
		a.SetNotify(func(event, reason string) { demotions = append(demotions, event+":"+reason) })
		if _, err := a.LoadPlanned(completePlan("a1")); err != nil {
			t.Fatal(err)
		}
		if _, err := b.LoadPlanned(completePlan("b1")); err != nil {
			t.Fatal(err)
		}
		if upset {
			if err := a.InjectFault(3, 2, 7); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := b.LoadPlanned(completePlan("b2")); err != nil {
			t.Fatal(err)
		}
		if cur, ok := b.ResidentState(); !ok || cur != "b2" {
			t.Fatalf("sibling resident state (%q, %v), want authoritative b2", cur, ok)
		}
		cur, ok := a.ResidentState()
		if !upset {
			if !ok || cur != "a1" || len(demotions) != 0 || a.modules["a1"].loads != 1 {
				t.Fatalf("clean region after a sibling load: (%q, %v), demotions %v, a1 bound %d times; want authoritative a1 bound once",
					cur, ok, demotions, a.modules["a1"].loads)
			}
			continue
		}
		if ok || !slices.Equal(demotions, []string{"demote:unverified"}) {
			t.Fatalf("upset region after a sibling load: (%q, %v), demotions %v; want one unverified demotion", cur, ok, demotions)
		}
		if a.Corrupted() {
			t.Fatal("an in-band upset read as static-design corruption")
		}
	}
}

// TestRegisterRefusesHashCollision: rebind binds by region hash, so a
// module whose configured region would hash like another module's, or like
// the blank region, is refused at registration.
func TestRegisterRefusesHashCollision(t *testing.T) {
	mgr, _, region, _ := rig(t)
	if err := register(mgr, testComponent("alpha", region), func() hw.Core { return &testCore{id: 1} }); err != nil {
		t.Fatal(err)
	}
	twin := testComponent("alpha", region)
	twin.Name = "twin"
	if err := register(mgr, twin, func() hw.Core { return &testCore{id: 2} }); err == nil || !strings.Contains(err.Error(), "alpha") {
		t.Fatalf("a module with alpha's configuration: err = %v, want a collision with alpha", err)
	}
	blank := testComponent("blank", region)
	blank.Macro = nil
	for _, col := range blank.CLBFrames {
		for _, f := range col {
			clear(f)
		}
	}
	if err := register(mgr, blank, func() hw.Core { return &testCore{id: 3} }); err == nil || !strings.Contains(err.Error(), "blank") {
		t.Fatalf("a module with the blank region's configuration: err = %v, want a collision with the blank region", err)
	}
	if got := mgr.Modules(); !slices.Equal(got, []string{"alpha"}) {
		t.Fatalf("modules %v after refused registrations, want [alpha]", got)
	}
}

// TestOneModuleManyManagers: managers over separate configuration memories
// that share an assembler register one Module; each binds it and counts its
// loads on its own, and a module another assembler built is refused.
func TestOneModuleManyManagers(t *testing.T) {
	a, _, region, _ := rig(t)
	cm := fabric.NewConfigMemory(fabric.XC2VP7())
	cm.Guard(region)
	cfg, boundB, _ := rigConfig(t, cm)
	cfg.Memo = a.cfg.Memo
	b, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := NewModule(a.cfg.Memo.asm, testComponent("alpha", region), func() hw.Core { return &testCore{id: 1} })
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Manager{a, b} {
		if err := m.Register(mod); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.LoadPlanned(completePlan("alpha")); err != nil {
		t.Fatal(err)
	}
	if cur, ok := b.ResidentState(); cur != "" || !ok || b.modules["alpha"].loads != 0 || boundB() != nil {
		t.Fatalf("a's load moved b: resident (%q, %v), alpha bound %d times on b", cur, ok, b.modules["alpha"].loads)
	}
	if _, err := b.LoadPlanned(completePlan("alpha")); err != nil {
		t.Fatal(err)
	}
	if a.modules["alpha"].loads != 1 || b.modules["alpha"].loads != 1 || boundB() == nil {
		t.Fatalf("alpha bound %d times on a and %d on b, want once each", a.modules["alpha"].loads, b.modules["alpha"].loads)
	}

	other, _, _, _ := rig(t)
	foreign, err := NewModule(other.cfg.Memo.asm, testComponent("beta", region), func() hw.Core { return &testCore{id: 2} })
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Register(foreign); err == nil || !strings.Contains(err.Error(), "assembler") {
		t.Fatalf("a module another assembler built: err = %v, want a refusal", err)
	}
}
