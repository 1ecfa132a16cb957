package bench

import "testing"

// TestCompressRunsAcceptance runs the S8 comparison on a reduced workload and
// checks the relations the full benchmark is gated on: the compressed
// load path cuts wire bytes well below the differential planner's, and
// DMA overlap cuts visible configuration time below the CPU load path.
func TestCompressRunsAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("drives four full pool workloads")
	}
	w := DefaultWorkload()
	w.N = 24
	runs, err := CompressSuite(w).Run()
	if err != nil {
		t.Fatal(err)
	}
	complete, diff, comp, dma := runs[0].Stats, runs[1].Stats, runs[2].Stats, runs[3].Stats

	if diff.BytesStreamed >= complete.BytesStreamed {
		t.Errorf("diff streamed %d B, not below complete's %d B", diff.BytesStreamed, complete.BytesStreamed)
	}
	// Acceptance: compression cuts wire bytes >=30% below the differential
	// planner on the same workload and placement.
	if 10*comp.BytesStreamed > 7*diff.BytesStreamed {
		t.Errorf("compressed streamed %d B, want <=70%% of diff's %d B", comp.BytesStreamed, diff.BytesStreamed)
	}
	if comp.CompressedLoads == 0 {
		t.Error("compressed row issued no compressed loads")
	}
	if comp.DMALoads != 0 || diff.DMALoads != 0 || complete.DMALoads != 0 {
		t.Error("CPU rows booked DMA loads")
	}

	// Acceptance: the DMA row hides part of each pair's configuration, so
	// its visible config time is below the CPU compressed row's.
	if dma.Config >= comp.Config {
		t.Errorf("compressed+dma visible config %v not below compressed %v", dma.Config, comp.Config)
	}
	if dma.DMALoads == 0 || dma.OverlapConfig == 0 {
		t.Errorf("DMA row: %d DMA loads, %v overlap — want both nonzero", dma.DMALoads, dma.OverlapConfig)
	}
	for i, r := range runs {
		if a := r.Availability(); a <= 0 || a > 1 {
			t.Errorf("run %d (%s): availability %v out of range", i, r.Label, a)
		}
	}
	// The DMA row does the same work with less visible configuration, so
	// its availability is at least the CPU compressed row's.
	if runs[3].Availability() < runs[2].Availability() {
		t.Errorf("compressed+dma availability %.4f below compressed %.4f",
			runs[3].Availability(), runs[2].Availability())
	}
}
