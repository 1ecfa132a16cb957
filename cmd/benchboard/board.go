package main

import (
	"fmt"
	"html"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/bench/gate"
)

// point is one commit's value of one series, with its regression verdict.
type point struct {
	sha      string
	value    float64
	flagged  bool    // a gated metric that fails its band vs its predecessor
	deltaPct float64 // vs predecessor (0 for the first point / zero baseline)
}

// series is one configuration label's trajectory within a chart.
type series struct {
	label  string
	points []point
}

// chart is one (suite, metric) panel: every label's trajectory over the
// commits that measured it.
type chart struct {
	suite  string
	metric string
	unit   string
	det    bool
	shas   []string // x axis, commit order of the history file
	series []series // first-appearance order, stable as history grows
}

func (c *chart) fileName() string {
	return c.suite + "_" + strings.NewReplacer("/", "-", " ", "-").Replace(c.metric)
}

func (c *chart) title() string {
	t := c.suite + " " + c.metric
	if c.unit != "" {
		t += " (" + c.unit + ")"
	}
	if !c.det {
		t += " — host-dependent"
		if !gate.Gated(c.suite, c.metric) {
			t += ", informational"
		}
	}
	return t
}

// metricOrder fixes the panel order within a suite: the CI-gated pair
// first, then the derived qualities.
var metricOrder = []string{
	"config_ms", "bytes_streamed", "hidden_ms", "overlap_ms",
	"availability", "repair_ms", "throughput_rps",
	"p50_ms", "p95_ms", "p99_ms",
}

func metricRank(name string) int {
	for i, m := range metricOrder {
		if m == name {
			return i
		}
	}
	return len(metricOrder)
}

// loadCharts reads the history and assembles the chart panels.
func loadCharts(path string) ([]*chart, int, error) {
	entries, skipped, err := gate.LoadEntries(path)
	if err != nil {
		return nil, skipped, err
	}
	type sampleKey struct{ sha, suite, metric string }
	samples := make(map[sampleKey]gate.Entry)
	var keyOrder []sampleKey // file order of first appearance — keeps charts deterministic
	var shaOrder []string
	shaSeen := make(map[string]bool)
	for _, e := range entries {
		k := sampleKey{e.SHA, e.Suite, e.Metric}
		// Last write wins: a re-run of the same commit refreshes its row.
		if _, seen := samples[k]; !seen {
			keyOrder = append(keyOrder, k)
		}
		samples[k] = e
		if !shaSeen[e.SHA] {
			shaSeen[e.SHA] = true
			shaOrder = append(shaOrder, e.SHA)
		}
	}

	type chartKey struct{ suite, name string }
	byChart := make(map[chartKey]*chart)
	var chartOrder []chartKey
	labelSeen := make(map[chartKey]map[string]int)
	for _, sha := range shaOrder {
		for _, k := range keyOrder {
			if k.sha != sha {
				continue
			}
			e := samples[k]
			label, name := gate.SplitMetric(e.Metric)
			ck := chartKey{e.Suite, name}
			c := byChart[ck]
			if c == nil {
				c = &chart{suite: e.Suite, metric: name, unit: e.Unit, det: e.Deterministic}
				byChart[ck] = c
				chartOrder = append(chartOrder, ck)
				labelSeen[ck] = make(map[string]int)
			}
			if _, ok := labelSeen[ck][label]; !ok {
				labelSeen[ck][label] = len(c.series)
				c.series = append(c.series, series{label: label})
			}
			si := labelSeen[ck][label]
			c.series[si].points = append(c.series[si].points, point{sha: sha, value: e.Value})
		}
	}
	charts := make([]*chart, 0, len(byChart))
	for _, ck := range chartOrder {
		c := byChart[ck]
		for i := range c.series {
			annotate(c, &c.series[i])
		}
		shaIn := make(map[string]bool)
		for _, s := range c.series {
			for _, p := range s.points {
				shaIn[p.sha] = true
			}
		}
		for _, sha := range shaOrder {
			if shaIn[sha] {
				c.shas = append(c.shas, sha)
			}
		}
		charts = append(charts, c)
	}
	sort.SliceStable(charts, func(i, j int) bool {
		if charts[i].suite != charts[j].suite {
			return charts[i].suite < charts[j].suite
		}
		return metricRank(charts[i].metric) < metricRank(charts[j].metric)
	})
	return charts, skipped, nil
}

// annotate holds each point of a series to its predecessor through
// gate.Compare, as cmd/benchdiff holds a fresh run to its baseline, and
// flags only a metric gate.Gated names.
func annotate(c *chart, s *series) {
	gated := gate.Gated(c.suite, c.metric)
	for i := 1; i < len(s.points); i++ {
		prev := s.points[i-1]
		v := gate.Compare(c.suite, c.metric, prev.value, s.points[i].value)
		s.points[i].deltaPct = v.DeltaPct
		s.points[i].flagged = gated && !v.Pass
	}
}

// fmtValue renders a value for tables and tooltips in its unit's natural
// precision.
func fmtValue(v float64, unit string) string {
	switch unit {
	case "B":
		return fmt.Sprintf("%.0f", v)
	case "req/s":
		return fmt.Sprintf("%.0f", v)
	case "frac":
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// writeMarkdown renders every chart as an EXPERIMENTS-style table: one
// row per commit, one column per configuration label, regressions marked
// with the ⚠ the CI gate would raise.
func writeMarkdown(path string, charts []*chart) error {
	var b strings.Builder
	b.WriteString("# Bench trajectory\n\n")
	b.WriteString("Rendered by `cmd/benchboard -md` from the per-commit history store\n")
	b.WriteString("(`artifacts/bench/history.jsonl`). A ⚠ marks a point that fails the\n")
	b.WriteString("CI gate's tolerance band (internal/bench/gate) against its\n")
	b.WriteString("predecessor — the same math `cmd/benchdiff` applies in CI.\n")
	for _, c := range charts {
		fmt.Fprintf(&b, "\n## %s\n\n", c.title())
		b.WriteString("| commit |")
		for _, s := range c.series {
			fmt.Fprintf(&b, " %s |", s.label)
		}
		b.WriteString("\n|---|")
		b.WriteString(strings.Repeat("---|", len(c.series)))
		b.WriteString("\n")
		for _, sha := range c.shas {
			fmt.Fprintf(&b, "| %s |", sha)
			for _, s := range c.series {
				cell := ""
				for _, p := range s.points {
					if p.sha == sha {
						cell = fmtValue(p.value, c.unit)
						if p.flagged {
							cell = "**" + cell + "** ⚠"
						}
						break
					}
				}
				fmt.Fprintf(&b, " %s |", cell)
			}
			b.WriteString("\n")
		}
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// seriesColors is a validated categorical palette (fixed assignment
// order, never cycled): adjacent-pair CVD ΔE ≥ 8 and normal-vision ΔE ≥
// 15 on the light surface. Identity is never color-alone — every chart
// ships a text legend, per-point tooltips and the table view.
var seriesColors = []string{
	"#2a78d6", // blue
	"#eb6834", // orange
	"#1baf7a", // aqua
	"#eda100", // yellow
	"#e87ba4", // magenta
	"#008300", // green
	"#4a3aa7", // violet
	"#e34948", // red
}

// maxSeries caps the polylines per chart; further labels fold into the
// table view rather than getting a ninth generated hue.
const maxSeries = 8

const (
	chartW  = 760
	chartH  = 300
	marginL = 64
	marginR = 16
	marginT = 28
	marginB = 48
	flagRed = "#c8321f" // status serious: regression rings and ⚠ labels
	inkMain = "#0b0b0b"
	inkSub  = "#52514e"
	surface = "#fcfcfb"
	grid    = "#e8e7e4"
)

// svg renders the chart as a standalone SVG document: one 2px polyline
// per label, 8px markers, a regression ring + ⚠ on flagged points, a
// recessive grid, and a text legend. Tooltips ride native <title>
// elements.
func (c *chart) svg() string {
	plotW := float64(chartW - marginL - marginR)
	plotH := float64(chartH - marginT - marginB)
	shown := c.series
	folded := 0
	if len(shown) > maxSeries {
		folded = len(shown) - maxSeries
		shown = shown[:maxSeries]
	}
	maxV := 0.0
	for _, s := range shown {
		for _, p := range s.points {
			if p.value > maxV {
				maxV = p.value
			}
		}
	}
	if maxV == 0 {
		maxV = 1
	}
	maxV *= 1.08
	xAt := func(sha string) float64 {
		if len(c.shas) == 1 {
			return float64(marginL) + plotW/2
		}
		for i, s := range c.shas {
			if s == sha {
				return float64(marginL) + plotW*float64(i)/float64(len(c.shas)-1)
			}
		}
		return float64(marginL)
	}
	yAt := func(v float64) float64 { return float64(marginT) + plotH*(1-v/maxV) }

	legendRows := (len(shown) + 2) / 3
	extraH := 18*legendRows + 8
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="system-ui, sans-serif">`,
		chartW, chartH+extraH, chartW, chartH+extraH)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="%s"/>`, chartW, chartH+extraH, surface)
	fmt.Fprintf(&b, `<text x="%d" y="18" fill="%s" font-size="13" font-weight="600">%s</text>`,
		marginL, inkMain, esc(c.title()))
	// Recessive grid: four horizontal rules with axis values.
	for i := 0; i <= 4; i++ {
		v := maxV * float64(i) / 4
		y := yAt(v)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="%s" stroke-width="1"/>`,
			marginL, y, chartW-marginR, y, grid)
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" fill="%s" font-size="10" text-anchor="end">%s</text>`,
			marginL-6, y+3, inkSub, esc(fmtValue(v, c.unit)))
	}
	// Commit axis (label centers clamped so edge labels stay inside the
	// viewBox).
	for _, sha := range c.shas {
		x := xAt(sha)
		if lim := float64(chartW) - 24; x > lim {
			x = lim
		}
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" fill="%s" font-size="10" text-anchor="middle">%s</text>`,
			x, chartH-marginB+16, inkSub, esc(sha))
	}
	for si, s := range shown {
		color := seriesColors[si]
		var pts []string
		for _, p := range s.points {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", xAt(p.sha), yAt(p.value)))
		}
		if len(pts) > 1 {
			fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`,
				strings.Join(pts, " "), color)
		}
		for _, p := range s.points {
			x, y := xAt(p.sha), yAt(p.value)
			tip := fmt.Sprintf("%s @ %s: %s %s", s.label, p.sha, fmtValue(p.value, c.unit), c.unit)
			if p.deltaPct != 0 {
				tip += fmt.Sprintf(" (%+.1f%%)", p.deltaPct)
			}
			if p.flagged {
				tip += " — REGRESSION past gate band"
				fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="7" fill="none" stroke="%s" stroke-width="2"/>`,
					x, y, flagRed)
				fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" fill="%s" font-size="11" text-anchor="middle">&#9888;</text>`,
					x, y-10, flagRed)
			}
			fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="4" fill="%s"><title>%s</title></circle>`,
				x, y, color, esc(tip))
		}
	}
	// Text legend (identity never rides color alone).
	for si, s := range shown {
		lx := marginL + (si%3)*230
		ly := chartH + 10 + (si/3)*18
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="2"/>`,
			lx, ly, lx+16, ly, seriesColors[si])
		fmt.Fprintf(&b, `<text x="%d" y="%d" fill="%s" font-size="11">%s</text>`,
			lx+22, ly+4, inkSub, esc(s.label))
	}
	if folded > 0 {
		fmt.Fprintf(&b, `<text x="%d" y="%d" fill="%s" font-size="11">… %d more series in the table view</text>`,
			marginL, chartH+10+legendRows*18, inkSub, folded)
	}
	b.WriteString(`</svg>`)
	return b.String()
}

func esc(s string) string { return html.EscapeString(s) }
