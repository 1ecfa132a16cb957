// Patternfind plants an 8x8 logo in a large bilevel image and locates it
// with the hardware matching pipeline on both systems, reproducing the
// paper's first case study end to end (software baseline included).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/platform"
	"repro/internal/ref"
	"repro/internal/tasks"
)

func run(sys *platform.System) {
	const w, h = 256, 128
	rng := rand.New(rand.NewSource(99))
	im := ref.NewBinaryImage(w, h)
	for i := range im.Words {
		im.Words[i] = rng.Uint32()
	}
	var logo ref.Pattern8
	for j := range logo {
		logo[j] = byte(0x3C ^ j*17)
	}
	// Plant the logo.
	px, py := 171, 83
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			im.Set(px+i, py+j, int(logo[j]>>(7-uint(i))&1))
		}
	}
	args := tasks.PatternArgs{
		ImgAddr: sys.MemBase() + 0x100000, W: w, H: h,
		Pattern: logo, Threshold: 64,
		LUTAddr: sys.MemBase() + 0x8040,
	}
	if err := tasks.LoadPatternImage(sys, args.ImgAddr, im); err != nil {
		log.Fatal(err)
	}
	if err := tasks.LoadPopcountLUT(sys, args.LUTAddr); err != nil {
		log.Fatal(err)
	}

	var swRes tasks.PatternResult
	swTime := sys.Measure(func() { swRes = tasks.PatternMatchSW(sys, args) })
	if _, err := sys.LoadModuleOn(0, "patternmatch", nil); err != nil {
		log.Fatal(err)
	}
	var hwRes tasks.PatternResult
	var err error
	hwTime := sys.Measure(func() { hwRes, err = tasks.PatternMatchHW(sys, args) })
	if err != nil {
		log.Fatal(err)
	}
	if hwRes != swRes {
		log.Fatalf("hw and sw disagree: %+v vs %+v", hwRes, swRes)
	}
	status := "FOUND"
	if hwRes.BestX != px || hwRes.BestY != py || hwRes.BestCount != 64 {
		status = "MISSED"
	}
	fmt.Printf("%s: logo %s at (%d,%d) count=%d, %d positions >= threshold\n",
		sys.Name, status, hwRes.BestX, hwRes.BestY, hwRes.BestCount, hwRes.Hits)
	fmt.Printf("  software %v, hardware %v, speedup %.1fx\n",
		swTime, hwTime, float64(swTime)/float64(hwTime))
}

func main() {
	s32, err := platform.NewSys32()
	if err != nil {
		log.Fatal(err)
	}
	run(s32)
	s64, err := platform.NewSys64()
	if err != nil {
		log.Fatal(err)
	}
	run(s64)
	fmt.Println("\nthe speedup drops on the 64-bit system: the software gains more")
	fmt.Println("from the faster memory than the CPU-controlled hardware path (§4.2)")
}
