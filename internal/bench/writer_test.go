package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
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

var updateHistoryGolden = flag.Bool("update", false, "rewrite the testdata goldens: history.golden.jsonl from the committed BENCH_sched.json, and the deterministic suite rows")

// DecodeRecords parses a BENCH_sched.json-layout document into rows, the
// inverse of MarshalWire.
func DecodeRecords(data []byte) ([]Row, error) {
	var rows []Row
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("bench: decode records: %w", err)
	}
	return rows, nil
}

// TestHistoryEntriesGolden pins every history entry the committed
// baseline lowers to — suite, label/metric key, value, unit and
// determinism, in emission order — so the set of
// metrics each suite contributes to artifacts/bench/history.jsonl cannot
// drift silently.
func TestHistoryEntriesGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_sched.json"))
	if err != nil {
		t.Fatalf("read committed baseline: %v", err)
	}
	recs, err := DecodeRecords(data)
	if err != nil {
		t.Fatalf("decode baseline: %v", err)
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	for _, e := range NewWriter(recs...).HistoryEntries("golden") {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "history.golden.jsonl")
	if *updateHistoryGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to capture): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("history entries of BENCH_sched.json differ from %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}

// TestWriterAppendHistoryRoundTrip writes history through the Writer and
// reads it back through the gate reader.
func TestWriterAppendHistoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "history.jsonl")
	w := NewWriter(Row{Table: "S4", Label: "paired", Policy: "mincost", Planner: true, ConfigMs: 3.25, BytesStreamed: 99})
	if err := w.AppendHistory(path, "d00d1e"); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.AppendHistory(path, "f00dca"); err != nil {
		t.Fatalf("second append: %v", err)
	}
	entries, skipped, err := gate.LoadEntries(path)
	if err != nil || skipped != 0 {
		t.Fatalf("load: err=%v skipped=%d", err, skipped)
	}
	if len(entries) != 2*len(w[0].Metrics()) {
		t.Fatalf("%d entries after two appends of %d metrics", len(entries), len(w[0].Metrics()))
	}
	if entries[0].SHA != "d00d1e" || entries[len(entries)-1].SHA != "f00dca" {
		t.Errorf("append order lost: first %s last %s", entries[0].SHA, entries[len(entries)-1].SHA)
	}
}
