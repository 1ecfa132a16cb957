package gate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckPercentBand(t *testing.T) {
	cases := []struct {
		name      string
		base, now float64
		allowed   float64
		wantPass  bool
		wantDelta float64
	}{
		{"within band", 100, 110, 15, true, 10},
		{"exactly at band", 100, 115, 15, true, 15},
		{"past band", 100, 120, 15, false, 20},
		{"improvement", 100, 80, 15, true, -20},
		{"tight band", 100, 101, 0.5, false, 1},
	}
	for _, c := range cases {
		v := Check(c.base, c.now, c.allowed, ConfigMsZeroEps)
		if v.Pass != c.wantPass || v.Zero {
			t.Errorf("%s: pass=%v zero=%v, want pass=%v zero=false", c.name, v.Pass, v.Zero, c.wantPass)
		}
		if v.DeltaPct != c.wantDelta {
			t.Errorf("%s: delta %.3f, want %.3f", c.name, v.DeltaPct, c.wantDelta)
		}
		if v.Allowed != c.allowed {
			t.Errorf("%s: allowed %.3f, want %.3f", c.name, v.Allowed, c.allowed)
		}
	}
}

// TestCheckZeroBaseline: a percentage of zero is undefined, so zero
// baselines gate the absolute value against the metric's epsilon — the
// regime the all-hit S6 rows and diff-suppressed byte counts rely on.
func TestCheckZeroBaseline(t *testing.T) {
	if v := Check(0, 0.005, 15, ConfigMsZeroEps); !v.Pass || !v.Zero || v.Allowed != ConfigMsZeroEps {
		t.Errorf("config_ms 0 -> 0.005 ms: %+v, want zero-regime pass", v)
	}
	if v := Check(0, 0.5, 15, ConfigMsZeroEps); v.Pass || !v.Zero {
		t.Errorf("config_ms 0 -> 0.5 ms: %+v, want zero-regime FAIL", v)
	}
	if v := Check(0, 0, 15, BytesZeroEps); !v.Pass || !v.Zero {
		t.Errorf("bytes 0 -> 0: %+v, want pass", v)
	}
	if v := Check(0, 1, 15, BytesZeroEps); v.Pass {
		t.Errorf("bytes 0 -> 1: %+v, want FAIL (any byte on an all-hit path is a regression)", v)
	}
}

func TestCheckHigherBetter(t *testing.T) {
	if v := CheckHigherBetter(0.99, 0.97, 15); !v.Pass {
		t.Errorf("availability 0.99 -> 0.97 within 15%%: %+v", v)
	}
	if v := CheckHigherBetter(0.99, 0.50, 15); v.Pass {
		t.Errorf("availability 0.99 -> 0.50: %+v, want FAIL", v)
	}
	if v := CheckHigherBetter(100, 200, 15); !v.Pass || v.DeltaPct != 100 {
		t.Errorf("throughput doubling: %+v, want pass at +100%%", v)
	}
	if v := CheckHigherBetter(0, 5, 15); !v.Pass || !v.Zero {
		t.Errorf("zero baseline, higher-better: %+v, want unconditional pass", v)
	}
}

// TestCompare: the band follows the suite and metric alone, and the
// direction and zero-baseline epsilon follow the metric. The closed S2
// series of the history gets no wider band than any other suite.
func TestCompare(t *testing.T) {
	cases := []struct {
		suite, metric string
		base, now     float64
		wantPass      bool
	}{
		{"S2", "bytes_streamed", 100, 130, false}, // the 15% band
		{"S3", "config_ms", 100, 116, false},      // the 15% band
		{"S3", "config_ms", 100, 115, true},       // at the band
		{"S9", "p99_ms", 100, 101.5, false},       // the 1% SLO band
		{"S9", "config_ms", 100, 101.5, true},     // S9's other metrics
		{"S6", "p99_ms", 100, 101.5, true},        // percentiles elsewhere
		{"S7", "availability", 0.9, 0.7, false},   // falls past the band
		{"S7", "availability", 0.9, 1.0, true},    // rises
		{"S6", "bytes_streamed", 0, 1, false},     // any byte on zero
		{"S6", "config_ms", 0, 0.005, true},       // config-time epsilon
	}
	for _, c := range cases {
		if v := Compare(c.suite, c.metric, c.base, c.now); v.Pass != c.wantPass {
			t.Errorf("%s %s: %g -> %g: %+v, want pass=%v", c.suite, c.metric, c.base, c.now, v, c.wantPass)
		}
	}
}

func TestSuiteDeterministic(t *testing.T) {
	for _, s := range []string{"S3", "S4", "S7", "S8", "S9"} {
		if !SuiteDeterministic(s) {
			t.Errorf("%s must gate as deterministic", s)
		}
	}
	for _, s := range []string{"S2", "S6", "single", ""} {
		if SuiteDeterministic(s) {
			t.Errorf("%s must gate as host-dependent", s)
		}
	}
}

// TestGated: the economy pair gates on every row, every metric of a
// deterministic suite gates, and a host-dependent suite's own metrics
// stay informational.
func TestGated(t *testing.T) {
	cases := []struct {
		suite, metric string
		want          bool
	}{
		{"S2", "config_ms", true},
		{"S6", "bytes_streamed", true},
		{"S6", "throughput_rps", false},
		{"S6", "p99_ms", false},
		{"S3", "hidden_ms", true},
		{"S4", "hidden_ms", true},
		{"S7", "availability", true},
		{"S7", "repair_ms", true},
		{"S8", "overlap_ms", true},
		{"S8", "availability", true},
		{"S9", "p95_ms", true},
	}
	for _, c := range cases {
		if got := Gated(c.suite, c.metric); got != c.want {
			t.Errorf("Gated(%s, %s) = %v, want %v", c.suite, c.metric, got, c.want)
		}
	}
}

func TestSplitMetric(t *testing.T) {
	cases := []struct{ in, label, name string }{
		{"lru+planner/config_ms", "lru+planner", "config_ms"},
		{"shards-4/rho-4/poisson/throughput_rps", "shards-4/rho-4/poisson", "throughput_rps"},
		{"bare", "", "bare"},
	}
	for _, c := range cases {
		label, name := SplitMetric(c.in)
		if label != c.label || name != c.name {
			t.Errorf("SplitMetric(%q) = (%q, %q), want (%q, %q)", c.in, label, name, c.label, c.name)
		}
	}
}

func TestHistoryAppendLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "history.jsonl")
	first := []Entry{
		{SHA: "aaa111", Suite: "S3", Metric: "depth-2/config_ms", Value: 1.25, Unit: "ms", Deterministic: true},
		{SHA: "aaa111", Suite: "S2", Metric: "lru/bytes_streamed", Value: 4096, Unit: "B"},
	}
	if err := AppendEntries(path, first); err != nil {
		t.Fatalf("append: %v", err)
	}
	second := []Entry{
		{SHA: "bbb222", Suite: "S3", Metric: "depth-2/config_ms", Value: 1.10, Unit: "ms", Deterministic: true},
	}
	if err := AppendEntries(path, second); err != nil {
		t.Fatalf("second append: %v", err)
	}
	got, skipped, err := LoadEntries(path)
	if err != nil || skipped != 0 {
		t.Fatalf("load: err=%v skipped=%d", err, skipped)
	}
	if len(got) != 3 {
		t.Fatalf("%d entries, want 3", len(got))
	}
	if got[0] != first[0] || got[1] != first[1] || got[2] != second[0] {
		t.Errorf("round trip lost data:\n got %+v\nwant %+v", got, append(first, second...))
	}
}

// TestReadEntriesTolerant: damaged or truncated lines are skipped and
// counted, never fatal — a crashed bench run must not poison the whole
// history.
func TestReadEntriesTolerant(t *testing.T) {
	raw := strings.Join([]string{
		`{"sha":"aaa111","suite":"S4","metric":"paired/config_ms","value":2.5,"unit":"ms","deterministic":true}`,
		`{"sha":"aaa111","suite":"S4","met`, // truncated mid-write
		`not json at all`,
		``,
		`{"sha":"","suite":"S4","metric":"x/config_ms","value":1}`, // missing key fields
		`{"sha":"bbb222","suite":"S4","metric":"paired/config_ms","value":2.4,"unit":"ms","deterministic":true}`,
	}, "\n")
	entries, skipped, err := ReadEntries(strings.NewReader(raw))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d entries, want 2 survivors", len(entries))
	}
	if skipped != 3 {
		t.Errorf("skipped = %d, want 3 (truncated, garbage, missing-key)", skipped)
	}
	if entries[0].SHA != "aaa111" || entries[1].SHA != "bbb222" {
		t.Errorf("survivors %+v", entries)
	}
}

func TestLoadEntriesMissingFile(t *testing.T) {
	entries, skipped, err := LoadEntries(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || skipped != 0 || len(entries) != 0 {
		t.Fatalf("missing history must read as empty: %v %d %d", err, skipped, len(entries))
	}
}

func TestAppendEntriesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	if err := AppendEntries(path, nil); err != nil {
		t.Fatalf("empty append: %v", err)
	}
	if _, err := os.Stat(path); err == nil {
		// An empty append may create the file or not; either is fine, but
		// if it exists it must be empty.
		data, _ := os.ReadFile(path)
		if len(data) != 0 {
			t.Errorf("empty append wrote %d bytes", len(data))
		}
	}
}
