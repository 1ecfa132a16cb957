package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench/gate"
)

// TestWriterGoldenByteCompat pins the refactor's core promise: lowering
// the committed baseline through typed records and re-marshalling via
// the Writer reproduces BENCH_sched.json byte for byte. If this fails,
// the wire layout drifted and every archived snapshot (and benchdiff's
// committed baseline) silently stopped round-tripping.
func TestWriterGoldenByteCompat(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sched.json"))
	if err != nil {
		t.Fatalf("read committed baseline: %v", err)
	}
	recs, err := DecodeRecords(data)
	if err != nil {
		t.Fatalf("decode baseline: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("baseline decoded to zero records")
	}
	out, err := NewWriter(recs...).MarshalWire()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Equal(data, out) {
		t.Fatalf("Writer output differs from committed BENCH_sched.json\n got %d bytes, want %d — wire layout drifted", len(out), len(data))
	}
}

// TestFromWireSuites checks that each archived table lowers to its typed
// record, that Deterministic agrees with the shared gate classification,
// and that every record exposes well-formed metrics.
func TestFromWireSuites(t *testing.T) {
	cases := []struct {
		table string
		want  string // concrete type name
	}{
		{"S2", "bench.ScheduleRecord"},
		{"S3", "bench.PrefetchRecord"},
		{"S4", "bench.RegionRecord"},
		{"S6", "bench.ScalingRecord"},
		{"S7", "bench.FaultRecord"},
		{"S8", "bench.CompressRecord"},
		{"S9", "bench.SLORecord"},
		{"", "bench.PlacementRecord"},
	}
	for _, c := range cases {
		w := PlacementRecord{Table: c.table, Label: "x", ConfigMs: 1.5, BytesStreamed: 64}
		r := FromWire(w)
		wantSuite := c.table
		if wantSuite == "" {
			wantSuite = "single"
		}
		if r.Suite() != wantSuite {
			t.Errorf("table %q: Suite() = %q, want %q", c.table, r.Suite(), wantSuite)
		}
		if got := r.Deterministic(); got != gate.SuiteDeterministic(r.Suite()) {
			t.Errorf("table %q: Deterministic() = %v disagrees with gate.SuiteDeterministic", c.table, got)
		}
		ms := r.Metrics()
		if len(ms) < 2 {
			t.Errorf("table %q: %d metrics, want at least config_ms and bytes_streamed", c.table, len(ms))
		}
		for _, m := range ms {
			if m.Name == "" || m.Unit == "" {
				t.Errorf("table %q: malformed metric %+v", c.table, m)
			}
		}
		if ms[0].Name != "config_ms" || ms[0].Value != 1.5 {
			t.Errorf("table %q: first metric %+v, want config_ms=1.5", c.table, ms[0])
		}
		back := r.Wire()
		if back.Table != c.table || back.Label != "x" || back.ConfigMs != 1.5 || back.BytesStreamed != 64 {
			t.Errorf("table %q: Wire() did not round-trip the shared fields: %+v", c.table, back)
		}
	}
}

// TestWriterHistoryEntries: every record contributes one history entry
// per metric, keyed label/metric under its suite, carrying the record's
// determinism and tolerance.
func TestWriterHistoryEntries(t *testing.T) {
	w := NewWriter()
	AddRecords(w, []ScheduleRecord{{Base: Base{Label: "lru+planner", Policy: "lru", Planner: true, ConfigMs: 2.0, BytesStreamed: 128, TolerancePct: 40}}})
	AddRecords(w, []FaultRecord{{Base: Base{Label: "burst+scrub", Policy: "mincost", Planner: true, ConfigMs: 1.0, TolerancePct: 15}, Availability: 0.97}})
	entries := w.HistoryEntries("abc1234")
	if len(entries) < 4 {
		t.Fatalf("%d entries, want >= 4 (two gated metrics per record minimum)", len(entries))
	}
	for _, e := range entries {
		if e.SHA != "abc1234" {
			t.Errorf("entry %+v: wrong sha", e)
		}
		label, name := gate.SplitMetric(e.Metric)
		if label == "" || name == "" {
			t.Errorf("entry metric %q does not split into label/name", e.Metric)
		}
	}
	if entries[0].Suite != "S2" || entries[0].Deterministic || entries[0].TolerancePct != 40 {
		t.Errorf("S2 entry %+v: want host-dependent at 40%% tolerance", entries[0])
	}
	var sawAvail bool
	for _, e := range entries {
		if e.Suite == "S7" && e.Metric == "burst+scrub/availability" {
			sawAvail = true
			if !e.Deterministic || e.Value != 0.97 || e.Unit != "frac" {
				t.Errorf("availability entry %+v", e)
			}
		}
	}
	if !sawAvail {
		t.Error("no S7 availability entry emitted")
	}
}

// TestWriterAppendHistoryRoundTrip writes history through the Writer and
// reads it back through the gate reader.
func TestWriterAppendHistoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "history.jsonl")
	w := NewWriter()
	AddRecords(w, []RegionRecord{{Base: Base{Label: "paired", Policy: "mincost", Planner: true, ConfigMs: 3.25, BytesStreamed: 99, TolerancePct: 15}}})
	if err := w.AppendHistory(path, "d00d1e"); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.AppendHistory(path, "f00dca"); err != nil {
		t.Fatalf("second append: %v", err)
	}
	entries, skipped, err := func() ([]gate.Entry, int, error) {
		return gate.LoadEntries(path)
	}()
	if err != nil || skipped != 0 {
		t.Fatalf("load: err=%v skipped=%d", err, skipped)
	}
	if len(entries) != 2*len(w.Records()[0].Metrics()) {
		t.Fatalf("%d entries after two appends of %d metrics", len(entries), len(w.Records()[0].Metrics()))
	}
	if entries[0].SHA != "d00d1e" || entries[len(entries)-1].SHA != "f00dca" {
		t.Errorf("append order lost: first %s last %s", entries[0].SHA, entries[len(entries)-1].SHA)
	}
}
