// Sha1accel hashes messages of growing size with the SHA-1 core on the
// 64-bit system, showing the paper's Table 11 shape: the RFC reference
// software carries a large fixed overhead that fades as messages grow,
// while the hardware path is transfer-bound. It also demonstrates the
// paper's resource constraint: the core does not fit the 32-bit system.
package main

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/platform"
	"repro/internal/tasks"
)

func main() {
	s32, err := platform.NewSys32()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := s32.LoadModuleOn(0, "sha1", nil); err != nil {
		fmt.Printf("32-bit system: %v\n", err)
		fmt.Printf("  (as in the paper: the SHA-1 core exceeds the %d-CLB dynamic area)\n\n", s32.RegionAt(0).CLBs())
	}

	sys, err := platform.NewSys64()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := sys.LoadModuleOn(0, "sha1", nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("64-bit system: sha1 core loaded into the %d-CLB dynamic area\n", sys.RegionAt(0).CLBs())
	fmt.Printf("  (%s stream: %d B in %v — only the frames that differ from the blank baseline)\n\n",
		rep.Kind, rep.Bytes, rep.Time)
	fmt.Printf("%-10s  %-12s  %-12s  %s\n", "message", "software", "hardware", "speedup")

	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{64, 512, 4096, 65536} {
		msg := make([]byte, n)
		rng.Read(msg)
		addr := sys.MemBase() + 0x100000
		if err := sys.WriteMem(addr, msg); err != nil {
			log.Fatal(err)
		}
		args := tasks.SHA1Args{MsgAddr: addr, MsgLen: n, PadAddr: sys.MemBase() + 0x400040}

		var swH, hwH [5]uint32
		swTime := sys.Measure(func() {
			if swH, err = tasks.SHA1SW(sys, args); err != nil {
				log.Fatal(err)
			}
		})
		hwTime := sys.Measure(func() {
			if hwH, err = tasks.SHA1HW(sys, args); err != nil {
				log.Fatal(err)
			}
		})
		var digest [20]byte
		for i, h := range hwH {
			binary.BigEndian.PutUint32(digest[4*i:], h)
		}
		if digest != sha1.Sum(msg) || swH != hwH {
			log.Fatalf("digest mismatch at %d bytes", n)
		}
		fmt.Printf("%-10d  %-12v  %-12v  %.1fx\n", n, swTime, hwTime,
			float64(swTime)/float64(hwTime))
	}
	fmt.Println("\nall digests verified against crypto/sha1")
}
