package tasks_test

import (
	"fmt"
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
				if !s.SupportsOn(0, r.Module()) {
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
	if _, err := s.LoadModuleOn(0, "blend", nil); err != nil {
		t.Fatal(err)
	}
	r := tasks.FadeRun{Seed: 1, N: 64, F: 128}
	if err := r.Run(s); err == nil {
		t.Fatal("fade runner succeeded with blend loaded")
	}
}

// TestRunnerNamesMatchSprintf holds every runner's label, built with
// strconv, to the fmt.Sprintf form it replaces, byte for byte, at several
// sizes (zero and negative included) and for every transfer kind.
func TestRunnerNamesMatchSprintf(t *testing.T) {
	kinds := []tasks.TransferKind{tasks.TransferWrite, tasks.TransferRead, tasks.TransferInterleaved, tasks.TransferKind(7)}
	for _, n := range []int{0, 1, 7, 12, 600, 1087, 65536, -3} {
		for _, c := range []struct {
			r    tasks.Runner
			want string
		}{
			{tasks.SHA1Run{Len: n}, fmt.Sprintf("sha1/%dB", n)},
			{tasks.JenkinsRun{Len: n}, fmt.Sprintf("jenkins/%dB", n)},
			{tasks.PatternRun{W: n, H: n + 5}, fmt.Sprintf("patternmatch/%dx%d", n, n+5)},
			{tasks.BrightnessRun{N: n}, fmt.Sprintf("brightness/%dpx", n)},
			{tasks.BlendRun{N: n}, fmt.Sprintf("blend/%dpx", n)},
			{tasks.FadeRun{N: n}, fmt.Sprintf("fade/%dpx", n)},
		} {
			if got := c.r.Name(); got != c.want {
				t.Errorf("%T.Name() = %q, want %q", c.r, got, c.want)
			}
		}
		for _, k := range kinds {
			r := tasks.TransferRun{Kind: k, Words: n}
			if got, want := r.Name(), fmt.Sprintf("transfer/%s/%dw", k, n); got != want {
				t.Errorf("TransferRun.Name() = %q, want %q", got, want)
			}
		}
	}
}
