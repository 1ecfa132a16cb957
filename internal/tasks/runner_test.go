package tasks_test

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/tasks"
)

// runners is the table of one small instance per task type.
func runners() []tasks.Runner {
	return []tasks.Runner{
		tasks.SHA1Run{Seed: 1, Len: 200},
		tasks.JenkinsRun{Seed: 2, Len: 300, InitVal: 7},
		tasks.PatternRun{Seed: 3, W: 32, H: 32, Threshold: 56},
		tasks.BrightnessRun{Seed: 4, N: 512, Delta: 40},
		tasks.BlendRun{Seed: 5, N: 512},
		tasks.FadeRun{Seed: 6, N: 512, F: 96},
		tasks.TransferRun{Kind: tasks.TransferWrite, Words: 64},
	}
}

func TestRunnersVerifyOnBothSystems(t *testing.T) {
	for _, build := range []struct {
		name string
		mk   func() (*platform.System, error)
	}{
		{"sys32", platform.NewSys32},
		{"sys64", platform.NewSys64},
	} {
		t.Run(build.name, func(t *testing.T) {
			s, err := build.mk()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range runners() {
				if !s.Supports(r.Module()) {
					continue // sha1 does not fit the 32-bit dynamic area
				}
				rep, err := s.ExecuteOn(0, r.Module(), func() error { return r.Run(s) })
				if err != nil {
					t.Fatalf("%s: %v", r.Name(), err)
				}
				if rep.Work == 0 {
					t.Errorf("%s: zero simulated work time", r.Name())
				}
			}
		})
	}
}

func TestRunnerVerificationCatchesWrongModule(t *testing.T) {
	s, err := platform.NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	// Load a different module than the runner needs: the driver must refuse.
	if _, err := s.LoadModule("blend"); err != nil {
		t.Fatal(err)
	}
	r := tasks.FadeRun{Seed: 1, N: 64, F: 128}
	if err := r.Run(s); err == nil {
		t.Fatal("fade runner succeeded with blend loaded")
	}
}
