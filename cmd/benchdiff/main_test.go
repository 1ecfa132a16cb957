package main

import (
	"repro/internal/bench/gate"

	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baseline = `[
  {"table":"S2","label":"mincost+planner","config_ms":30.0,"bytes_streamed":1900000},
  {"table":"S3","label":"mincost+prefetch-freq","config_ms":19.0,"bytes_streamed":1300000}
]`

func TestWithinThresholdPasses(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	f := write(t, dir, "fresh.json", `[
	  {"table":"S2","label":"mincost+planner","config_ms":33.0,"bytes_streamed":2000000},
	  {"table":"S3","label":"mincost+prefetch-freq","config_ms":18.0,"bytes_streamed":1310000}
	]`)
	var out, errw bytes.Buffer
	if code := run([]string{"-baseline", b, "-fresh", f}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s\nstdout:\n%s", code, errw.String(), out.String())
	}
	if !strings.Contains(out.String(), "within tolerance of baseline") {
		t.Errorf("stdout:\n%s", out.String())
	}
}

// TestPerRecordToleranceWidensBand: a baseline record carrying its own
// tolerance_pct (a configuration known to be concurrency-noisy) passes a
// swing that the default threshold would reject — without widening the
// band for the other records.
func TestPerRecordToleranceWidensBand(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", `[
	  {"table":"S2","label":"mincost+planner","config_ms":30.0,"bytes_streamed":1900000,"tolerance_pct":40},
	  {"table":"S3","label":"mincost+prefetch-freq","config_ms":19.0,"bytes_streamed":1300000}
	]`)
	f := write(t, dir, "fresh.json", `[
	  {"table":"S2","label":"mincost+planner","config_ms":39.0,"bytes_streamed":2500000},
	  {"table":"S3","label":"mincost+prefetch-freq","config_ms":19.0,"bytes_streamed":1300000}
	]`)
	var out, errw bytes.Buffer
	if code := run([]string{"-baseline", b, "-fresh", f}, &out, &errw); code != 0 {
		t.Fatalf("exit %d (a +30%% swing must pass a 40%% band); stdout:\n%s", code, out.String())
	}
	// The same +30% swing on the tight-band S3 row still fails.
	f2 := write(t, dir, "fresh2.json", `[
	  {"table":"S2","label":"mincost+planner","config_ms":30.0,"bytes_streamed":1900000},
	  {"table":"S3","label":"mincost+prefetch-freq","config_ms":25.0,"bytes_streamed":1300000}
	]`)
	out.Reset()
	errw.Reset()
	if code := run([]string{"-baseline", b, "-fresh", f2}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL S3/mincost+prefetch-freq") {
		t.Errorf("stdout:\n%s", out.String())
	}
}

func TestConfigTimeRegressionFails(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	f := write(t, dir, "fresh.json", `[
	  {"table":"S2","label":"mincost+planner","config_ms":36.0,"bytes_streamed":1900000},
	  {"table":"S3","label":"mincost+prefetch-freq","config_ms":19.0,"bytes_streamed":1300000}
	]`)
	var out, errw bytes.Buffer
	if code := run([]string{"-baseline", b, "-fresh", f}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL S2/mincost+planner") || !strings.Contains(errw.String(), "regression(s)") {
		t.Errorf("stdout:\n%s\nstderr:\n%s", out.String(), errw.String())
	}
}

func TestBytesRegressionFails(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	f := write(t, dir, "fresh.json", `[
	  {"table":"S2","label":"mincost+planner","config_ms":30.0,"bytes_streamed":2300000},
	  {"table":"S3","label":"mincost+prefetch-freq","config_ms":19.0,"bytes_streamed":1300000}
	]`)
	var out, errw bytes.Buffer
	if code := run([]string{"-baseline", b, "-fresh", f}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1; stdout:\n%s", code, out.String())
	}
}

func TestMissingConfigurationFails(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	f := write(t, dir, "fresh.json", `[
	  {"table":"S2","label":"mincost+planner","config_ms":30.0,"bytes_streamed":1900000}
	]`)
	var out, errw bytes.Buffer
	if code := run([]string{"-baseline", b, "-fresh", f}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "missing from fresh run") {
		t.Errorf("stderr:\n%s", errw.String())
	}
}

func TestNewConfigurationIsReportedNotFailed(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	f := write(t, dir, "fresh.json", `[
	  {"table":"S2","label":"mincost+planner","config_ms":30.0,"bytes_streamed":1900000},
	  {"table":"S3","label":"mincost+prefetch-freq","config_ms":19.0,"bytes_streamed":1300000},
	  {"table":"S3","label":"prefetch+prefetch-markov","config_ms":25.0,"bytes_streamed":1600000}
	]`)
	var out, errw bytes.Buffer
	if code := run([]string{"-baseline", b, "-fresh", f}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, want 0; stderr:\n%s", code, errw.String())
	}
	if !strings.Contains(out.String(), "new  S3/prefetch+prefetch-markov") {
		t.Errorf("stdout:\n%s", out.String())
	}
}

func TestThresholdFlag(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	f := write(t, dir, "fresh.json", `[
	  {"table":"S2","label":"mincost+planner","config_ms":31.0,"bytes_streamed":1900000},
	  {"table":"S3","label":"mincost+prefetch-freq","config_ms":19.0,"bytes_streamed":1300000}
	]`)
	var out, errw bytes.Buffer
	if code := run([]string{"-baseline", b, "-fresh", f, "-max-regress", "2"}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1 at 2%% threshold", code)
	}
}

func TestBadInputs(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	garbled := write(t, dir, "bad.json", "{not json")
	empty := write(t, dir, "empty.json", "[]")
	cases := []struct {
		name string
		args []string
	}{
		{"missing fresh flag", []string{"-baseline", b}},
		{"nonexistent fresh file", []string{"-baseline", b, "-fresh", filepath.Join(dir, "nope.json")}},
		{"garbled fresh file", []string{"-baseline", b, "-fresh", garbled}},
		{"empty baseline", []string{"-baseline", empty, "-fresh", b}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if code := run(tc.args, &out, &errw); code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, errw.String())
			}
		})
	}
}

// TestZeroBaselineGating: a 0-valued baseline metric cannot be gated in
// percent (any band scaled by zero admits nothing, and a fixed mapping to
// 100% silently passes under a wide per-record tolerance). The gate
// switches to absolute deltas: a fresh value within the per-metric epsilon
// passes, anything beyond it fails regardless of the tolerance band.
func TestZeroBaselineGating(t *testing.T) {
	zeroBase := `[
	  {"table":"S7","label":"rate-0+scrub","config_ms":0,"bytes_streamed":0,"tolerance_pct":500}
	]`
	cases := []struct {
		name     string
		fresh    string
		wantExit int
		wantOut  string
	}{
		{
			name:     "zero stays zero",
			fresh:    `[{"table":"S7","label":"rate-0+scrub","config_ms":0,"bytes_streamed":0}]`,
			wantExit: 0,
			wantOut:  "zero baseline",
		},
		{
			name:     "config time within epsilon",
			fresh:    `[{"table":"S7","label":"rate-0+scrub","config_ms":0.005,"bytes_streamed":0}]`,
			wantExit: 0,
			wantOut:  "zero baseline",
		},
		{
			name:     "config time grows past epsilon despite wide band",
			fresh:    `[{"table":"S7","label":"rate-0+scrub","config_ms":5.0,"bytes_streamed":0}]`,
			wantExit: 1,
			wantOut:  "FAIL S7/rate-0+scrub",
		},
		{
			name:     "any byte on a zero-byte baseline fails",
			fresh:    `[{"table":"S7","label":"rate-0+scrub","config_ms":0,"bytes_streamed":1}]`,
			wantExit: 1,
			wantOut:  "FAIL S7/rate-0+scrub",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			b := write(t, dir, "base.json", zeroBase)
			f := write(t, dir, "fresh.json", tc.fresh)
			var out, errw bytes.Buffer
			if code := run([]string{"-baseline", b, "-fresh", f}, &out, &errw); code != tc.wantExit {
				t.Fatalf("exit %d, want %d; stdout:\n%s\nstderr:\n%s",
					code, tc.wantExit, out.String(), errw.String())
			}
			if !strings.Contains(out.String(), tc.wantOut) {
				t.Errorf("stdout missing %q:\n%s", tc.wantOut, out.String())
			}
		})
	}
}

// TestHistoryVerdicts: with -history/-sha, every comparison's verdict
// lands in the per-commit store — the same entries cmd/benchboard reads
// so a dashboard flag and a gate verdict can never disagree.
func TestHistoryVerdicts(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	f := write(t, dir, "fresh.json", `[
	  {"table":"S2","label":"mincost+planner","config_ms":33.0,"bytes_streamed":2000000},
	  {"table":"S3","label":"mincost+prefetch-freq","config_ms":30.0,"bytes_streamed":1310000}
	]`)
	history := filepath.Join(dir, "history.jsonl")
	var out, errw bytes.Buffer
	code := run([]string{"-baseline", b, "-fresh", f, "-history", history, "-sha", "abc1234"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (S3 config time regressed +58%%)", code)
	}
	entries, skipped, err := gate.LoadEntries(history)
	if err != nil || skipped != 0 {
		t.Fatalf("load history: err=%v skipped=%d", err, skipped)
	}
	if len(entries) != 4 {
		t.Fatalf("%d history entries, want 2 records x 2 metrics", len(entries))
	}
	byMetric := make(map[string]gate.Entry)
	for _, e := range entries {
		if e.SHA != "abc1234" || e.Verdict == "" {
			t.Errorf("entry %+v: want sha abc1234 and a verdict", e)
		}
		byMetric[e.Suite+"/"+e.Metric] = e
	}
	if e := byMetric["S3/mincost+prefetch-freq/config_ms"]; e.Verdict != "fail" || !e.Deterministic {
		t.Errorf("regressed S3 row recorded as %+v, want deterministic fail", e)
	}
	if e := byMetric["S2/mincost+planner/config_ms"]; e.Verdict != "ok" || e.Deterministic {
		t.Errorf("passing S2 row recorded as %+v, want host-dependent ok", e)
	}
}

// TestHistoryNeedsSha: -history without -sha is a usage error.
func TestHistoryNeedsSha(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	var out, errw bytes.Buffer
	code := run([]string{"-baseline", b, "-fresh", b, "-history", filepath.Join(dir, "h.jsonl")}, &out, &errw)
	if code != 2 || !strings.Contains(errw.String(), "-history needs -sha") {
		t.Fatalf("exit %d, stderr %q", code, errw.String())
	}
}

// TestMaxRegressMustBePositive: a row without its own tolerance takes
// the -max-regress band, and a zero or negative band is a usage error,
// not a silent fall-back to the gate default.
func TestMaxRegressMustBePositive(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	for _, mr := range []string{"0", "-5"} {
		var out, errw bytes.Buffer
		code := run([]string{"-baseline", b, "-fresh", b, "-max-regress", mr}, &out, &errw)
		if code != 2 || !strings.Contains(errw.String(), "must be positive") {
			t.Errorf("-max-regress %s: exit %d, stderr %q", mr, code, errw.String())
		}
	}
}
