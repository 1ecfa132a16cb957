package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/bench/gate"
)

// snapshot writes a fake archived BENCH_sched.<sha>.json with one S4 row.
func snapshot(t *testing.T, dir, sha string, configMs float64, bytesStreamed uint64) {
	t.Helper()
	w := bench.NewWriter(bench.Row{
		Table: "S4", Label: "paired", Policy: "mincost", Planner: true,
		ConfigMs: configMs, BytesStreamed: bytesStreamed, TolerancePct: 15,
	})
	if err := w.WriteFile(filepath.Join(dir, "BENCH_sched."+sha+".json")); err != nil {
		t.Fatal(err)
	}
}

func TestExtractIdempotent(t *testing.T) {
	dir := t.TempDir()
	history := filepath.Join(dir, "history.jsonl")
	snapshot(t, dir, "aaa111", 2.0, 1024)
	snapshot(t, dir, "bbb222", 2.1, 1024)
	os.WriteFile(filepath.Join(dir, "BENCH_other.json"), []byte("[]"), 0o644) // must be ignored

	added, files, err := extractSnapshots(history, dir)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	if files != 2 || added != 6 {
		t.Fatalf("extracted files=%d added=%d, want 2 snapshots x 3 S4 metrics", files, added)
	}
	// Re-extraction appends nothing.
	added, files, err = extractSnapshots(history, dir)
	if err != nil || files != 2 || added != 0 {
		t.Fatalf("re-extract: err=%v files=%d added=%d, want idempotent no-op", err, files, added)
	}
	entries, skipped, err := gate.LoadEntries(history)
	if err != nil || skipped != 0 || len(entries) != 6 {
		t.Fatalf("history after double extract: err=%v skipped=%d n=%d", err, skipped, len(entries))
	}
}

func TestLoadChartsAndRegressionFlag(t *testing.T) {
	dir := t.TempDir()
	history := filepath.Join(dir, "history.jsonl")
	// Three commits of one deterministic S4 config: steady, steady, +50%
	// config-time regression that must trip the default 15% band.
	snapshot(t, dir, "aaa111", 2.0, 1024)
	snapshot(t, dir, "bbb222", 2.1, 1024)
	snapshot(t, dir, "ccc333", 3.0, 1024)
	if _, _, err := extractSnapshots(history, dir); err != nil {
		t.Fatal(err)
	}
	charts, skipped, err := loadCharts(history)
	if err != nil || skipped != 0 {
		t.Fatalf("loadCharts: err=%v skipped=%d", err, skipped)
	}
	if len(charts) != 3 {
		t.Fatalf("%d charts, want config_ms, bytes_streamed and hidden_ms", len(charts))
	}
	var cfg *chart
	for _, c := range charts {
		if c.metric == "config_ms" {
			cfg = c
		}
	}
	if cfg == nil || cfg.suite != "S4" || !cfg.det {
		t.Fatalf("config_ms chart missing or misclassified: %+v", cfg)
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

// TestLoadChartsRecordedVerdict: a benchdiff "fail" verdict flags the
// matching sample even when the predecessor band alone would pass.
func TestLoadChartsRecordedVerdict(t *testing.T) {
	history := filepath.Join(t.TempDir(), "history.jsonl")
	err := gate.AppendEntries(history, []gate.Entry{
		{SHA: "aaa111", Suite: "S4", Metric: "paired/config_ms", Value: 2.0, Unit: "ms", Deterministic: true},
		{SHA: "aaa111", Suite: "S4", Metric: "paired/config_ms", Value: 2.0, Unit: "ms", Deterministic: true, Verdict: "fail", DeltaPct: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	charts, _, err := loadCharts(history)
	if err != nil || len(charts) != 1 {
		t.Fatalf("charts: %v %d", err, len(charts))
	}
	if p := charts[0].series[0].points[0]; !p.flagged {
		t.Errorf("recorded benchdiff fail not surfaced: %+v", p)
	}
}

func TestMarkdownStableAcrossRenders(t *testing.T) {
	dir := t.TempDir()
	history := filepath.Join(dir, "history.jsonl")
	snapshot(t, dir, "aaa111", 2.0, 1024)
	snapshot(t, dir, "bbb222", 2.6, 2048)
	if _, _, err := extractSnapshots(history, dir); err != nil {
		t.Fatal(err)
	}
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
	dir := t.TempDir()
	history := filepath.Join(dir, "history.jsonl")
	snapshot(t, dir, "aaa111", 2.0, 1024)
	snapshot(t, dir, "bbb222", 3.0, 1024)
	if _, _, err := extractSnapshots(history, dir); err != nil {
		t.Fatal(err)
	}
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
	var cfg *chart
	for _, c := range charts {
		if c.metric == "config_ms" {
			cfg = c
		}
	}
	if !strings.Contains(cfg.svg(), "REGRESSION") {
		t.Error("config_ms +50% chart carries no regression annotation")
	}
	if cfg.fileName() != "S4_config_ms" {
		t.Errorf("fileName %q", cfg.fileName())
	}
}

func TestBoardHandler(t *testing.T) {
	dir := t.TempDir()
	history := filepath.Join(dir, "history.jsonl")
	snapshot(t, dir, "aaa111", 2.0, 1024)
	if _, _, err := extractSnapshots(history, dir); err != nil {
		t.Fatal(err)
	}
	h := boardHandler(history)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"<svg", "Bench trajectory", "<details>", "paired"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != 404 {
		t.Errorf("GET /nope: %d, want 404", rec.Code)
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

func TestRunExtractAndMd(t *testing.T) {
	dir := t.TempDir()
	history := filepath.Join(dir, "history.jsonl")
	snapshot(t, dir, "aaa111", 2.0, 1024)
	md := filepath.Join(dir, "TRAJECTORY.md")
	svgDir := filepath.Join(dir, "board")
	var out, errw bytes.Buffer
	code := run([]string{"-history", history, "-extract", "-snapshots", dir, "-md", md, "-svg", svgDir}, &out, &errw)
	if code != 0 {
		t.Fatalf("run exit %d: %s", code, errw.String())
	}
	if _, err := os.Stat(md); err != nil {
		t.Errorf("markdown not written: %v", err)
	}
	if _, err := os.Stat(filepath.Join(svgDir, "S4_config_ms.svg")); err != nil {
		t.Errorf("svg not written: %v", err)
	}
}
