package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// appendRows appends one commit's rows to the history, as
// `fpgad -compare -history` does.
func appendRows(t *testing.T, history, sha string, rows ...bench.Row) {
	t.Helper()
	if err := bench.NewWriter(rows...).AppendHistory(history, sha); err != nil {
		t.Fatal(err)
	}
}

// s4 is one S4 row with the given config time and streamed bytes.
func s4(configMs float64, bytesStreamed uint64) bench.Row {
	return bench.Row{
		Table: "S4", Label: "paired", Policy: "mincost", Planner: true,
		ConfigMs: configMs, BytesStreamed: bytesStreamed, TolerancePct: 15,
	}
}

// findChart returns the chart of the suite's metric.
func findChart(t *testing.T, charts []*chart, suite, metric string) *chart {
	t.Helper()
	for _, c := range charts {
		if c.suite == suite && c.metric == metric {
			return c
		}
	}
	t.Fatalf("no %s %s chart", suite, metric)
	return nil
}

func TestLoadChartsAndRegressionFlag(t *testing.T) {
	history := filepath.Join(t.TempDir(), "history.jsonl")
	// Three commits of one deterministic S4 config: steady, steady, +50%
	// config-time regression that must trip the 15% band.
	appendRows(t, history, "aaa111", s4(2.0, 1024))
	appendRows(t, history, "bbb222", s4(2.1, 1024))
	appendRows(t, history, "ccc333", s4(3.0, 1024))
	charts, skipped, err := loadCharts(history)
	if err != nil || skipped != 0 {
		t.Fatalf("loadCharts: err=%v skipped=%d", err, skipped)
	}
	if len(charts) != 3 {
		t.Fatalf("%d charts, want config_ms, bytes_streamed and hidden_ms", len(charts))
	}
	cfg := findChart(t, charts, "S4", "config_ms")
	if !cfg.det {
		t.Fatalf("config_ms chart misclassified: %+v", cfg)
	}
	if len(cfg.shas) != 3 || cfg.shas[0] != "aaa111" || cfg.shas[2] != "ccc333" {
		t.Fatalf("sha axis %v, want commit order", cfg.shas)
	}
	pts := cfg.series[0].points
	if pts[0].flagged || pts[1].flagged {
		t.Errorf("steady points flagged: %+v", pts[:2])
	}
	if !pts[2].flagged {
		t.Errorf("+%.0f%% point not flagged as a regression: %+v", pts[2].deltaPct, pts[2])
	}
}

// TestFlagsOnlyGatedMetrics: the board flags a point only when its metric
// is one the gate judges. A 50% fall of S6's host-dependent throughput
// renders unflagged; a 20% fall of S4's deterministic hidden config time
// fails its 15% band.
func TestFlagsOnlyGatedMetrics(t *testing.T) {
	history := filepath.Join(t.TempDir(), "history.jsonl")
	s6 := func(rps float64) bench.Row {
		return bench.Row{Table: "S6", Label: "shards-8/rho-4/poisson", ThroughputRPS: rps, P99Ms: 50}
	}
	hidden := func(ms float64) bench.Row {
		r := s4(2.0, 1024)
		r.HiddenMs = ms
		return r
	}
	appendRows(t, history, "aaa111", s6(20000), hidden(10))
	appendRows(t, history, "bbb222", s6(10000), hidden(8))
	charts, _, err := loadCharts(history)
	if err != nil {
		t.Fatal(err)
	}
	if p := findChart(t, charts, "S6", "throughput_rps").series[0].points[1]; p.flagged || p.deltaPct != -50 {
		t.Errorf("S6 throughput -50%%: %+v, want unflagged", p)
	}
	if p := findChart(t, charts, "S4", "hidden_ms").series[0].points[1]; !p.flagged {
		t.Errorf("S4 hidden_ms -20%%: %+v, want flagged", p)
	}
}

// TestFlagsFollowGateBands: the board holds each point to the band
// cmd/benchdiff holds the same row to. The four S2 rises of the
// committed history pass the S2 rows' 40% band, so they render
// unflagged; a 1.5% rise of an S9 sojourn percentile fails its 1% band.
func TestFlagsFollowGateBands(t *testing.T) {
	history := filepath.Join(t.TempDir(), "history.jsonl")
	s2 := func(label string, configMs float64, bytesStreamed uint64) bench.Row {
		return bench.Row{Table: "S2", Label: label, ConfigMs: configMs, BytesStreamed: bytesStreamed, TolerancePct: 40}
	}
	s9 := func(p99 float64) bench.Row {
		return bench.Row{Table: "S9", Label: "rho-1/poisson", P50Ms: 0.102, P95Ms: 0.195, P99Ms: p99}
	}
	appendRows(t, history, "9234095",
		s2("lru+complete-only", 152.785, 9153240), s2("lru+planner", 29.525, 1800648),
		s2("mincost+planner", 27.676354924618, 1745628), s9(0.222))
	appendRows(t, history, "193d10f",
		s2("lru+complete-only", 174.482, 11156072), s2("lru+planner", 28.564, 1734468),
		s2("mincost+planner", 23.039708284771002, 1369680), s9(0.222*1.015))
	appendRows(t, history, "395b3c0",
		s2("lru+complete-only", 163.633, 10154656), s2("lru+planner", 31.619, 2056944),
		s2("mincost+planner", 27.676354924618, 1745628))
	charts, _, err := loadCharts(history)
	if err != nil {
		t.Fatal(err)
	}
	md := filepath.Join(t.TempDir(), "TRAJECTORY.md")
	if err := writeMarkdown(md, charts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(md)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, row := range []string{
		"| 193d10f | 11156072 | 1734468 | 1369680 |",
		"| 395b3c0 | 10154656 | 2056944 | 1745628 |",
		"| 395b3c0 | 163.633 | 31.619 | 27.676 |",
	} {
		if !strings.Contains(out, row) {
			t.Errorf("markdown lacks the unflagged row %q:\n%s", row, out)
		}
	}
	p99 := findChart(t, charts, "S9", "p99_ms").series[0].points
	if len(p99) != 2 || !p99[1].flagged {
		t.Errorf("S9 p99 +1.5%% not flagged: %+v", p99)
	}
	if p95 := findChart(t, charts, "S9", "p95_ms").series[0].points; p95[1].flagged {
		t.Errorf("steady S9 p95 flagged: %+v", p95)
	}
}

// TestTitlesCallOnlyUngatedMetricsInformational: a chart title says
// "informational" only for a metric the gate does not judge. S2's and
// S6's config time and streamed bytes are host-dependent yet gated; S6's
// throughput and p99 are informational; S4's are neither.
func TestTitlesCallOnlyUngatedMetricsInformational(t *testing.T) {
	history := filepath.Join(t.TempDir(), "history.jsonl")
	appendRows(t, history, "aaa111",
		bench.Row{Table: "S2", Label: "lru+planner", ConfigMs: 29.525, BytesStreamed: 1800648, TolerancePct: 40},
		bench.Row{Table: "S6", Label: "shards-8/rho-4/poisson", ThroughputRPS: 20000, P99Ms: 50},
		s4(2.0, 1024))
	charts, _, err := loadCharts(history)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ suite, metric, want string }{
		{"S2", "config_ms", "S2 config_ms (ms) — host-dependent"},
		{"S2", "bytes_streamed", "S2 bytes_streamed (B) — host-dependent"},
		{"S6", "bytes_streamed", "S6 bytes_streamed (B) — host-dependent"},
		{"S6", "throughput_rps", "S6 throughput_rps (req/s) — host-dependent, informational"},
		{"S6", "p99_ms", "S6 p99_ms (ms) — host-dependent, informational"},
		{"S4", "config_ms", "S4 config_ms (ms)"},
	} {
		if got := findChart(t, charts, tc.suite, tc.metric).title(); got != tc.want {
			t.Errorf("title %q, want %q", got, tc.want)
		}
	}
}

func TestMarkdownStableAcrossRenders(t *testing.T) {
	dir := t.TempDir()
	history := filepath.Join(dir, "history.jsonl")
	appendRows(t, history, "aaa111", s4(2.0, 1024))
	appendRows(t, history, "bbb222", s4(2.6, 2048))
	md1 := filepath.Join(dir, "t1.md")
	md2 := filepath.Join(dir, "t2.md")
	for _, p := range []string{md1, md2} {
		charts, _, err := loadCharts(history)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeMarkdown(p, charts); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := os.ReadFile(md1)
	b, _ := os.ReadFile(md2)
	if !bytes.Equal(a, b) {
		t.Fatal("re-rendering the same history produced different markdown")
	}
	out := string(a)
	for _, want := range []string{"## S4 config_ms (ms)", "| aaa111 |", "| bbb222 |", "⚠"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestChartSVG(t *testing.T) {
	history := filepath.Join(t.TempDir(), "history.jsonl")
	appendRows(t, history, "aaa111", s4(2.0, 1024))
	appendRows(t, history, "bbb222", s4(3.0, 1024))
	charts, _, err := loadCharts(history)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range charts {
		svg := c.svg()
		for _, want := range []string{"<svg", "</svg>", "polyline", "<title>", c.suite} {
			if !strings.Contains(svg, want) {
				t.Errorf("chart %s: svg missing %q", c.fileName(), want)
			}
		}
	}
	cfg := findChart(t, charts, "S4", "config_ms")
	if !strings.Contains(cfg.svg(), "REGRESSION") {
		t.Error("config_ms +50% chart carries no regression annotation")
	}
	if cfg.fileName() != "S4_config_ms" {
		t.Errorf("fileName %q", cfg.fileName())
	}
}

func TestRunNothingToDo(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(nil, &out, &errw); code != 2 {
		t.Fatalf("bare run exit %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "nothing to do") {
		t.Errorf("stderr: %s", errw.String())
	}
}

// TestRunFlags: benchboard accepts exactly -history, -md and -svg.
func TestRunFlags(t *testing.T) {
	for _, args := range [][]string{{"-extract"}, {"-snapshots", "x"}, {"-prune", "1"}, {"-readme", "x"}, {"-serve", "x"}} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestRunMdAndSvg(t *testing.T) {
	dir := t.TempDir()
	history := filepath.Join(dir, "history.jsonl")
	appendRows(t, history, "aaa111", s4(2.0, 1024))
	md := filepath.Join(dir, "TRAJECTORY.md")
	svgDir := filepath.Join(dir, "board")
	var out, errw bytes.Buffer
	code := run([]string{"-history", history, "-md", md, "-svg", svgDir}, &out, &errw)
	if code != 0 {
		t.Fatalf("run exit %d: %s", code, errw.String())
	}
	if _, err := os.Stat(md); err != nil {
		t.Errorf("markdown not written: %v", err)
	}
	if _, err := os.Stat(filepath.Join(svgDir, "S4_config_ms.svg")); err != nil {
		t.Errorf("svg not written: %v", err)
	}
	errw.Reset()
	if code := run([]string{"-history", filepath.Join(dir, "absent.jsonl"), "-md", md}, &out, &errw); code != 1 {
		t.Errorf("empty history: exit %d, want 1", code)
	}
}
