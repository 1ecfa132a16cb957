package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/fpgasim.golden from the current tables and figures")

// TestRunGolden pins the full output — paper tables 1–12, the ablation
// tables and the figures — byte for byte. A change that means to move a
// number reruns the test with -update.
func TestRunGolden(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(nil, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	path := filepath.Join("testdata", "fpgasim.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to capture): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("fpgasim output differs from %s:\n got:\n%s", path, out.Bytes())
	}
}

func TestRunSingleTable(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-table", "13"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	got := out.String()
	if !strings.Contains(got, "A1") || !strings.Contains(got, "differential") {
		t.Errorf("table 13 output:\n%s", got)
	}
}

func TestRunFigures(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-figures"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	for _, want := range []string{"F1", "F2", "XC2VP7", "XC2VP30"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("figures missing %q", want)
		}
	}
}

func TestRunBadTable(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-table", "99"}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "no such table") {
		t.Errorf("stderr: %s", errw.String())
	}
}
