package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSmallWorkload(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-sys32", "1", "-n", "6", "-mix", "brightness=1,fade=1", "-seed", "3", "-v"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"S1 —", "bitstream cache hit rate", "member 0 (sys32)", "total", "6"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunFlagAndMixParsing is the table-driven gate on the front-end's
// argument surface: every malformed -mix shape, unknown names for the
// pluggable pieces, the flags -compare, single runs and floorplan
// exclude, a -predictor with no -prefetch to drive, and any argument but
// a trailing floorplan must be rejected with exit code 2 and a
// diagnostic naming the problem.
func TestRunFlagAndMixParsing(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"unknown task", []string{"-mix", "nosuchtask=1"}, "unknown task"},
		{"zero weight", []string{"-mix", "jenkins=0"}, "bad weight"},
		{"negative weight", []string{"-mix", "jenkins=-2"}, "bad weight"},
		{"non-numeric weight", []string{"-mix", "jenkins=lots"}, "bad weight"},
		{"empty mix", []string{"-mix", ""}, "empty workload mix"},
		{"only separators", []string{"-mix", ",,,"}, "empty workload mix"},
		{"bare equals", []string{"-mix", "=3"}, "unknown task"},
		{"unknown policy", []string{"-policy", "psychic"}, "unknown placement policy"},
		{"unknown predictor", []string{"-prefetch", "-predictor", "oracle"}, "unknown predictor"},
		{"predictor without prefetch", []string{"-n", "4", "-predictor", "bogus"}, "-predictor only applies with -prefetch"},
		{"compare excludes policy", []string{"-compare", "-policy", "mincost"}, "-compare"},
		{"compare excludes plan", []string{"-compare", "-plan=false"}, "-compare"},
		{"compare excludes prefetch", []string{"-compare", "-prefetch"}, "-compare"},
		{"compare excludes window", []string{"-compare", "-window", "2"}, "-compare"},
		{"compare excludes regions", []string{"-compare", "-regions", "2"}, "-compare"},
		{"compare excludes predictor", []string{"-compare", "-predictor", "freq"}, "-predictor only apply to single runs"},
		{"compare excludes verbose", []string{"-compare", "-v"}, "-v only apply to single runs"},
		{"compare excludes workload", []string{"-compare", "-sys32", "2", "-n", "60", "-seed", "7", "-mix", "fade"}, "-mix -n -seed -sys32 only apply"},
		{"single run excludes rows", []string{"-json", "r.json", "-history", "h.jsonl", "-sha", "abc1234"}, "-history -json -sha only apply to -compare"},
		{"zero regions", []string{"-regions", "0"}, "at least one region"},
		{"negative sys32", []string{"-sys32", "-3", "-sys64", "1"}, "-sys32 -3: a board count cannot be negative"},
		{"negative sys64", []string{"-sys32", "1", "-sys64", "-1"}, "-sys64 -1: a board count cannot be negative"},
		{"negative batch", []string{"-batch", "-2"}, "-batch -2: at least one request per batch"},
		{"zero batch", []string{"-batch", "0"}, "-batch 0: at least one request per batch"},
		{"negative window", []string{"-sys32", "1", "-n", "4", "-window", "-1"}, "-window -1: a window cannot be negative (0 submits every request upfront)"},
		{"oversplit regions", []string{"-sys32", "1", "-regions", "20", "-n", "2"}, "cannot host"},
		{"stray argument", []string{"-sys32", "1", "-n", "2", "bogus"}, `unexpected arguments ["bogus"]`},
		{"flags after floorplan", []string{"-sys32", "0", "-sys64", "1", "floorplan", "-regions", "2"}, `unexpected arguments ["floorplan" "-regions" "2"]`},
		{"floorplan excludes compare", []string{"-compare", "-json", "X", "floorplan"}, "-compare -json do not apply to it"},
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

// TestRunMixVariants: accepted -mix spellings parse to runnable workloads.
func TestRunMixVariants(t *testing.T) {
	cases := []struct {
		name string
		mix  string
	}{
		{"bare name weight 1", "fade"},
		{"mixed bare and weighted", "fade,brightness=2"},
		{"spaces around separators", " fade=2 , brightness=1 "},
		{"trailing comma", "fade=1,"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if code := run([]string{"-sys32", "1", "-n", "2", "-mix", tc.mix}, &out, &errw); code != 0 {
				t.Fatalf("exit %d for mix %q, stderr:\n%s", code, tc.mix, errw.String())
			}
		})
	}
}

func TestRunFailsUnsupportedModule(t *testing.T) {
	// sha1 on a pure 32-bit pool: requests must fail, exit code 1.
	var out, errw bytes.Buffer
	if code := run([]string{"-sys32", "1", "-n", "2", "-mix", "sha1=1"}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1, stderr:\n%s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "no slot supports") {
		t.Errorf("stderr: %s", errw.String())
	}
}

// TestRunPrefetchWindowed drives the prefetch pipeline through the CLI
// surface: windowed submission, prefetch summary line, and the per-member
// aborted-load counter in the final state report.
func TestRunPrefetchWindowed(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-sys32", "2", "-n", "10", "-mix", "brightness=1,fade=1,blend=1",
		"-seed", "5", "-policy", "mincost", "-prefetch", "-predictor", "freq", "-window", "1"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"prefetch on (freq)", "prefetch:", "hidden config", "aborted)", "policy mincost"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunDualRegions drives a small workload over dual-region members and
// checks the per-region member report lines.
func TestRunDualRegions(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-sys32", "0", "-sys64", "1", "-regions", "2", "-n", "6",
		"-mix", "brightness=1,fade=1", "-policy", "mincost", "-seed", "3"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"member 0 (sys64x2) dynamic64.a", "member 0 (sys64x2) dynamic64.b", "bitstream cache hit rate"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunFloorplanSubcommand prints the pool's floorplans and exits.
func TestRunFloorplanSubcommand(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-sys32", "1", "-sys64", "1", "-regions", "2", "floorplan"}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"floorplan of sys32x2", "floorplan of sys64x2", "F5",
		"dynamic area dynamic64.a", "dynamic area dynamic32.b", "ICAP stream addressing"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}
