package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
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
  {"table":"S3","label":"mincost+noprefetch","config_ms":30.0,"bytes_streamed":1900000},
  {"table":"S3","label":"mincost+prefetch-freq","config_ms":19.0,"bytes_streamed":1300000}
]`

func TestWithinThresholdPasses(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	f := write(t, dir, "fresh.json", `[
	  {"table":"S3","label":"mincost+noprefetch","config_ms":33.0,"bytes_streamed":2000000},
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

// TestStaleToleranceIsIgnored: the band follows the suite and metric
// alone. A baseline written when rows carried their own tolerance_pct
// still decodes, but its 40% is no band: a +30% rise of config time
// fails the 15% one.
func TestStaleToleranceIsIgnored(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", `[
	  {"table":"S3","label":"lru+noprefetch","config_ms":30,"bytes_streamed":1900000,"tolerance_pct":40}
	]`)
	f := write(t, dir, "fresh.json", `[
	  {"table":"S3","label":"lru+noprefetch","config_ms":39,"bytes_streamed":1900000}
	]`)
	var out, errw bytes.Buffer
	if code := run([]string{"-baseline", b, "-fresh", f}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1 (a +30%% rise past the 15%% band); stdout:\n%s", code, out.String())
	}
	if fields := strings.Fields(out.String()); len(fields) < 3 || fields[0] != "FAIL" || fields[2] != "config_ms" {
		t.Errorf("config_ms must fail first; stdout:\n%s", out.String())
	}
}

func TestConfigTimeRegressionFails(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	f := write(t, dir, "fresh.json", `[
	  {"table":"S3","label":"mincost+noprefetch","config_ms":36.0,"bytes_streamed":1900000},
	  {"table":"S3","label":"mincost+prefetch-freq","config_ms":19.0,"bytes_streamed":1300000}
	]`)
	var out, errw bytes.Buffer
	if code := run([]string{"-baseline", b, "-fresh", f}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL S3/mincost+noprefetch") || !strings.Contains(errw.String(), "regression(s)") {
		t.Errorf("stdout:\n%s\nstderr:\n%s", out.String(), errw.String())
	}
}

func TestBytesRegressionFails(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	f := write(t, dir, "fresh.json", `[
	  {"table":"S3","label":"mincost+noprefetch","config_ms":30.0,"bytes_streamed":2300000},
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
	  {"table":"S3","label":"mincost+noprefetch","config_ms":30.0,"bytes_streamed":1900000}
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
	  {"table":"S3","label":"mincost+noprefetch","config_ms":30.0,"bytes_streamed":1900000},
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
// 100% silently passes any growth a wide band allows). The gate switches
// to absolute deltas: a fresh value within the per-metric epsilon passes,
// anything beyond it fails, however wide a percent band would be.
func TestZeroBaselineGating(t *testing.T) {
	zeroBase := `[
	  {"table":"S7","label":"rate-0+scrub","config_ms":0,"bytes_streamed":0}
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

// TestGatedMetrics: benchdiff compares exactly the metrics gate.Gated
// names, each in its own direction. S7 availability and S8 overlap
// regress by falling, so a 20% fall fails their 15% band; S6 throughput
// and p99 swing with the host, so halving one and doubling the other
// passes while the row's all-hit zeros hold.
func TestGatedMetrics(t *testing.T) {
	const (
		s7 = `{"table":"S7","label":"rate-0.05+scrub","config_ms":19.8,"bytes_streamed":1827228,"repair_ms":1.5,"availability":%g}`
		s8 = `{"table":"S8","label":"compressed+dma","config_ms":5.8,"bytes_streamed":1000000,"overlap_ms":%g,"availability":0.19}`
		s6 = `{"table":"S6","label":"shards-8/rho-4/poisson","config_ms":0,"bytes_streamed":0,"throughput_rps":%g,"p99_ms":%g}`
	)
	rows := func(avail, overlap, rps, p99 float64) string {
		return "[" + fmt.Sprintf(s7, avail) + "," + fmt.Sprintf(s8, overlap) + "," + fmt.Sprintf(s6, rps, p99) + "]"
	}
	dir := t.TempDir()
	b := write(t, dir, "base.json", rows(0.5, 1.2, 20000, 50))
	for _, c := range []struct {
		name  string
		fresh string
		fail  string // the one failing "key metric", "" when the gate passes
	}{
		{"S7 availability falls 20%", rows(0.4, 1.2, 20000, 50), "S7/rate-0.05+scrub availability"},
		{"S8 overlap falls 20%", rows(0.5, 0.96, 20000, 50), "S8/compressed+dma overlap_ms"},
		{"S6 throughput halves, p99 doubles", rows(0.5, 1.2, 10000, 100), ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := write(t, dir, "fresh.json", c.fresh)
			var out, errw bytes.Buffer
			code := run([]string{"-baseline", b, "-fresh", f}, &out, &errw)
			var fails []string
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(line, "FAIL") {
					fields := strings.Fields(line)
					fails = append(fails, fields[1]+" "+fields[2])
				}
			}
			want, wantCode := []string{c.fail}, 1
			if c.fail == "" {
				want, wantCode = nil, 0
			}
			if code != wantCode || !slices.Equal(fails, want) {
				t.Errorf("exit %d, failing %q; want exit %d, failing %q:\n%s", code, fails, wantCode, want, out.String())
			}
			for _, m := range []string{"throughput_rps", "p99_ms"} {
				if strings.Contains(out.String(), m) {
					t.Errorf("host-dependent %s compared:\n%s", m, out.String())
				}
			}
		})
	}
}

// TestRunFlags: benchdiff takes exactly -baseline and -fresh.
func TestRunFlags(t *testing.T) {
	dir := t.TempDir()
	b := write(t, dir, "base.json", baseline)
	for _, extra := range [][]string{{"-max-regress", "10"}, {"-history", "h.jsonl"}, {"-sha", "abc1234"}} {
		var out, errw bytes.Buffer
		if code := run(append([]string{"-baseline", b, "-fresh", b}, extra...), &out, &errw); code != 2 {
			t.Errorf("%v: exit %d, want 2", extra, code)
		}
	}
}
