// Quickstart: boot the 32-bit platform, reconfigure the dynamic area with
// the brightness module through the full bitstream → HWICAP path, run the
// same workload in software and in hardware, and compare simulated times.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/platform"
	"repro/internal/ref"
	"repro/internal/tasks"
)

func main() {
	sys, err := platform.NewSys32()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("booted %s: %s, dynamic area %d CLBs (%d BRAMs)\n",
		sys.Name, sys.Dev, sys.RegionAt(0).CLBs(), sys.RegionAt(0).BRAMBudget)

	// Put a test image into external memory.
	const n = 64 * 1024
	src := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(src)
	args := tasks.ImageArgs{
		SrcA:  sys.MemBase() + 0x100000,
		Dst:   sys.MemBase() + 0x200040,
		N:     n,
		Delta: 60,
	}
	if err := sys.WriteMem(args.SrcA, src); err != nil {
		log.Fatal(err)
	}

	// Software baseline on the embedded CPU.
	swTime := sys.Measure(func() {
		if err := tasks.BrightnessSW(sys, args); err != nil {
			log.Fatal(err)
		}
	})

	// Reconfigure the dynamic area: the planner picks the cheapest safe
	// stream (here a differential against the verified blank baseline),
	// the BitLinker-assembled frames go through the HWICAP, and the
	// behavioural core is bound by configuration hash.
	rep, err := sys.LoadModuleOn(0, "brightness", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconfiguration: %s stream, %d B in %v (transition cached for next time)\n",
		rep.Kind, rep.Bytes, rep.Time)
	full, _, err := sys.Mgr.CompleteSize("brightness")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  (the state-independent complete stream would be %d B)\n", full)

	hwTime := sys.Measure(func() {
		if err := tasks.BrightnessHW(sys, args); err != nil {
			log.Fatal(err)
		}
	})

	// Verify against the plain-Go reference.
	want := make([]byte, n)
	ref.Brightness(want, src, args.Delta)
	got, err := sys.ReadMem(args.Dst, n)
	if err != nil {
		log.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("pixel %d: hw=%d want=%d", i, got[i], want[i])
		}
	}

	fmt.Printf("brightness over %d pixels:\n", n)
	fmt.Printf("  software:  %v\n", swTime)
	fmt.Printf("  hardware:  %v (speedup %.2fx)\n", hwTime, float64(swTime)/float64(hwTime))
	fmt.Printf("  results verified against the reference — ok\n")
}
