package tasks

import (
	"bytes"
	"crypto/sha1"
	"fmt"
	"math/rand"

	"repro/internal/platform"
	"repro/internal/ref"
)

// Runner is the uniform task interface the reconfiguration scheduler
// dispatches: every application kernel packages its own input generation,
// hardware driver and result verification behind it, so a scheduler can mix
// arbitrary task types without knowing their argument structures.
//
// Run is called with the named module already configured in the dynamic
// area and with the system lock held (inside platform.ExecuteOn); it must
// drive only the system it is given and must not call ExecuteOn or ResidentOn
// on it.
type Runner interface {
	// Name is a descriptive label ("jenkins/1024B").
	Name() string
	// Module is the dynamic-area circuit the task needs.
	Module() string
	// Run writes the task's inputs into external memory, drives the
	// hardware core and verifies the result against the functional oracle.
	Run(s *platform.System) error
}

// Fixed external-memory layout shared by all runners, as offsets from
// MemBase (requests on one system run serially, so ranges are reused).
const (
	runLUTOff     = 0x00_8040 // popcount table (.data)
	runInputOff   = 0x10_0000 // primary input (message, key, image A)
	runAuxOff     = 0x20_0040 // secondary input (image B)
	runDstOff     = 0x30_0080 // result buffer
	runScratchOff = 0x60_0000 // padding / stack scratch
)

func runnerData(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// SHA1Run hashes a Len-byte seeded message on the SHA-1 core and checks the
// digest against the standard-library implementation.
type SHA1Run struct {
	Seed int64
	Len  int
}

func (r SHA1Run) Name() string   { return fmt.Sprintf("sha1/%dB", r.Len) }
func (r SHA1Run) Module() string { return "sha1" }

func (r SHA1Run) Run(s *platform.System) error {
	msg := runnerData(r.Seed, r.Len)
	addr := s.MemBase() + runInputOff
	if err := s.WriteMem(addr, msg); err != nil {
		return err
	}
	got, err := SHA1HW(s, SHA1Args{MsgAddr: addr, MsgLen: r.Len, PadAddr: s.MemBase() + runScratchOff})
	if err != nil {
		return err
	}
	want := sha1.Sum(msg)
	var gotB [20]byte
	for i, w := range got {
		gotB[4*i] = byte(w >> 24)
		gotB[4*i+1] = byte(w >> 16)
		gotB[4*i+2] = byte(w >> 8)
		gotB[4*i+3] = byte(w)
	}
	if gotB != want {
		return fmt.Errorf("%s: digest %x, want %x", r.Name(), gotB, want)
	}
	return nil
}

// JenkinsRun hashes a Len-byte seeded key on the lookup2 core and checks
// the value against ref.Lookup2.
type JenkinsRun struct {
	Seed    int64
	Len     int
	InitVal uint32
}

func (r JenkinsRun) Name() string   { return fmt.Sprintf("jenkins/%dB", r.Len) }
func (r JenkinsRun) Module() string { return "jenkins" }

func (r JenkinsRun) Run(s *platform.System) error {
	key := runnerData(r.Seed, r.Len)
	addr := s.MemBase() + runInputOff
	if err := s.WriteMem(addr, key); err != nil {
		return err
	}
	got, err := JenkinsHW(s, JenkinsArgs{KeyAddr: addr, KeyLen: r.Len, InitVal: r.InitVal})
	if err != nil {
		return err
	}
	if want := ref.Lookup2(key, r.InitVal); got != want {
		return fmt.Errorf("%s: hash %#x, want %#x", r.Name(), got, want)
	}
	return nil
}

// PatternRun matches a seeded 8x8 pattern against a seeded WxH bilevel
// image on the matching pipeline and checks against ref.BestMatch.
type PatternRun struct {
	Seed      int64
	W, H      int
	Threshold int
}

func (r PatternRun) Name() string   { return fmt.Sprintf("patternmatch/%dx%d", r.W, r.H) }
func (r PatternRun) Module() string { return "patternmatch" }

func (r PatternRun) Run(s *platform.System) error {
	rng := rand.New(rand.NewSource(r.Seed))
	im := ref.NewBinaryImage(r.W, r.H)
	for i := range im.Words {
		im.Words[i] = rng.Uint32()
	}
	var p ref.Pattern8
	for j := range p {
		p[j] = byte(rng.Uint32())
	}
	a := PatternArgs{
		ImgAddr: s.MemBase() + runInputOff, W: r.W, H: r.H,
		Pattern: p, Threshold: r.Threshold, LUTAddr: s.MemBase() + runLUTOff,
	}
	if err := LoadPatternImage(s, a.ImgAddr, im); err != nil {
		return err
	}
	got, err := PatternMatchHW(s, a)
	if err != nil {
		return err
	}
	bx, by, bc, hits := ref.BestMatch(im, p, r.Threshold)
	want := PatternResult{BestX: bx, BestY: by, BestCount: bc, Hits: hits}
	if got != want {
		return fmt.Errorf("%s: result %+v, want %+v", r.Name(), got, want)
	}
	return nil
}

// imageRun loads two seeded N-pixel sources and returns the argument block
// shared by the three image runners.
func imageRun(s *platform.System, seed int64, n int) (ImageArgs, []byte, []byte, error) {
	srcA := runnerData(seed, n)
	srcB := runnerData(seed+1, n)
	a := ImageArgs{
		SrcA: s.MemBase() + runInputOff,
		SrcB: s.MemBase() + runAuxOff,
		Dst:  s.MemBase() + runDstOff,
		N:    n,
	}
	if err := s.WriteMem(a.SrcA, srcA); err != nil {
		return a, nil, nil, err
	}
	if err := s.WriteMem(a.SrcB, srcB); err != nil {
		return a, nil, nil, err
	}
	return a, srcA, srcB, nil
}

func checkImage(s *platform.System, a ImageArgs, name string, want []byte) error {
	got, err := s.ReadMem(a.Dst, a.N)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: result diverges from reference", name)
	}
	return nil
}

// BrightnessRun adds Delta to every pixel of a seeded N-pixel image on the
// brightness core and checks against ref.Brightness.
type BrightnessRun struct {
	Seed  int64
	N     int
	Delta int
}

func (r BrightnessRun) Name() string   { return fmt.Sprintf("brightness/%dpx", r.N) }
func (r BrightnessRun) Module() string { return "brightness" }

func (r BrightnessRun) Run(s *platform.System) error {
	a, srcA, _, err := imageRun(s, r.Seed, r.N)
	if err != nil {
		return err
	}
	a.Delta = r.Delta
	if err := BrightnessHW(s, a); err != nil {
		return err
	}
	want := make([]byte, r.N)
	ref.Brightness(want, srcA, r.Delta)
	return checkImage(s, a, r.Name(), want)
}

// BlendRun additively blends two seeded N-pixel images on the blend core
// and checks against ref.Blend.
type BlendRun struct {
	Seed int64
	N    int
}

func (r BlendRun) Name() string   { return fmt.Sprintf("blend/%dpx", r.N) }
func (r BlendRun) Module() string { return "blend" }

func (r BlendRun) Run(s *platform.System) error {
	a, srcA, srcB, err := imageRun(s, r.Seed, r.N)
	if err != nil {
		return err
	}
	if err := BlendHW(s, a); err != nil {
		return err
	}
	want := make([]byte, r.N)
	ref.Blend(want, srcA, srcB)
	return checkImage(s, a, r.Name(), want)
}

// FadeRun computes the fade effect (A-B)*F/256+B over two seeded N-pixel
// images on the fade core and checks against ref.Fade.
type FadeRun struct {
	Seed int64
	N    int
	F    int
}

func (r FadeRun) Name() string   { return fmt.Sprintf("fade/%dpx", r.N) }
func (r FadeRun) Module() string { return "fade" }

func (r FadeRun) Run(s *platform.System) error {
	a, srcA, srcB, err := imageRun(s, r.Seed, r.N)
	if err != nil {
		return err
	}
	a.F = r.F
	if err := FadeHW(s, a); err != nil {
		return err
	}
	want := make([]byte, r.N)
	ref.Fade(want, srcA, srcB, r.F)
	return checkImage(s, a, r.Name(), want)
}

// TransferRun moves Words 32-bit words through the passthrough core — the
// raw data-movement measurement as a schedulable task.
type TransferRun struct {
	Kind  TransferKind
	Words int
}

func (r TransferRun) Name() string   { return fmt.Sprintf("transfer/%s/%dw", r.Kind, r.Words) }
func (r TransferRun) Module() string { return "passthrough" }

func (r TransferRun) Run(s *platform.System) error {
	_, err := TransferCPU(s, r.Kind, r.Words)
	return err
}
