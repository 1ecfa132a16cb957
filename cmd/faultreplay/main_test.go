package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current campaign generator and replay")

// TestSweepGolden pins both artifacts of `make replay` — the seeded
// sweep campaign and its replayed S7 records — byte for byte. A change
// that means to move them reruns the test with -update.
func TestSweepGolden(t *testing.T) {
	dir := t.TempDir()
	campaign := filepath.Join(dir, "fault_scenarios.jsonl")
	records := filepath.Join(dir, "BENCH_replay.json")
	sweep := []string{"-scenario", "sweep", "-n", "60", "-seed", "7"}
	var out, errw bytes.Buffer
	if code := run(append(sweep, "-out", campaign), &out, &errw); code != 0 {
		t.Fatalf("generate exit %d, stderr:\n%s", code, errw.String())
	}
	if code := run(append(sweep, "-replay", campaign, "-json", records), &out, &errw); code != 0 {
		t.Fatalf("replay exit %d, stderr:\n%s", code, errw.String())
	}
	for _, f := range []struct{ got, golden string }{
		{campaign, "fault_scenarios.golden.jsonl"},
		{records, "BENCH_replay.golden.json"},
	} {
		got, err := os.ReadFile(f.got)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", f.golden)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read golden (run with -update to capture): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from %s", filepath.Base(f.got), path)
		}
	}
}

// TestRunFlagParsing is the table-driven gate on the front-end's argument
// surface: mode confusion and malformed values must be rejected with exit
// code 2 and a diagnostic naming the problem.
func TestRunFlagParsing(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"no mode", []string{}, "exactly one of -out"},
		{"both modes", []string{"-out", "a.jsonl", "-replay", "b.jsonl"}, "exactly one of -out"},
		{"json without replay", []string{"-out", "a.jsonl", "-json", "r.json"}, "-json only applies"},
		{"zero requests", []string{"-out", "a.jsonl", "-n", "0"}, "must be positive"},
		{"zero boards", []string{"-out", "a.jsonl", "-boards", "0"}, "must be positive"},
		{"zero regions", []string{"-out", "a.jsonl", "-regions", "0"}, "must be positive"},
		{"unknown campaign", []string{"-out", "a.jsonl", "-scenario", "meteor"}, "unknown campaign"},
		{"unknown flag", []string{"-meteor"}, "-meteor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if code := run(tc.args, &out, &errw); code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, errw.String())
			}
			if !strings.Contains(errw.String(), tc.wantErr) {
				t.Errorf("stderr missing %q:\n%s", tc.wantErr, errw.String())
			}
		})
	}
}

// TestRunGenerateDeterministic: the same seed writes a byte-identical
// artifact — the property that lets CI regenerate and diff campaigns.
func TestRunGenerateDeterministic(t *testing.T) {
	dir := t.TempDir()
	gen := func(name string) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		var out, errw bytes.Buffer
		if code := run([]string{"-scenario", "sweep", "-n", "40", "-seed", "11", "-out", path}, &out, &errw); code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, errw.String())
		}
		if !strings.Contains(out.String(), "scenario(s)") {
			t.Errorf("summary line missing:\n%s", out.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := gen("a.jsonl"), gen("b.jsonl")
	if !bytes.Equal(a, b) {
		t.Fatal("same seed wrote different artifacts")
	}
	if !strings.Contains(string(a), `"kind":"scenario"`) || !strings.Contains(string(a), `"kind":"fault"`) {
		t.Errorf("artifact missing record kinds:\n%s", a)
	}
}

// TestRunGenerateThenReplay drives the whole loop on a small workload:
// generate a uniform campaign, replay it, and check the S7 table and the
// JSON records land.
func TestRunGenerateThenReplay(t *testing.T) {
	dir := t.TempDir()
	artifact := filepath.Join(dir, "campaign.jsonl")
	jsonOut := filepath.Join(dir, "records.json")
	small := []string{"-scenario", "uniform", "-n", "8", "-seed", "5", "-boards", "1", "-regions", "2",
		"-mix", "brightness=1,fade=1,blend=1", "-batch", "1"}
	var out, errw bytes.Buffer
	if code := run(append(small, "-out", artifact), &out, &errw); code != 0 {
		t.Fatalf("generate exit %d, stderr:\n%s", code, errw.String())
	}
	out.Reset()
	errw.Reset()
	if code := run(append(small, "-replay", artifact, "-json", jsonOut), &out, &errw); code != 0 {
		t.Fatalf("replay exit %d, stderr:\n%s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"S7 —", "uniform", "availability", "repair time", "wrote " + jsonOut} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	data, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"table": "S7"`, `"label": "uniform+scrub"`, `"availability"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("records missing %q:\n%s", want, data)
		}
	}
	// A missing or truncated artifact is an error, not a silent no-op.
	errw.Reset()
	if code := run([]string{"-replay", filepath.Join(dir, "nope.jsonl")}, &out, &errw); code != 1 {
		t.Fatalf("replay of missing artifact: exit %d, want 1", code)
	}
}
