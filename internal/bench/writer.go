package bench

import (
	"encoding/json"
	"os"

	"repro/internal/bench/gate"
)

// Writer emits bench rows in both on-disk forms: the committed
// BENCH_sched.json layout that cmd/benchdiff gates on, and the
// append-only per-commit history store (artifacts/bench/history.jsonl)
// that cmd/benchboard renders.
type Writer []Row

// NewWriter returns a Writer over the rows, in emission order.
func NewWriter(rows ...Row) Writer { return rows }

// MarshalWire renders the rows in the BENCH_sched.json layout: an
// indented JSON array plus a trailing newline.
func (w Writer) MarshalWire() ([]byte, error) {
	// Copied into a non-nil slice so no rows marshal as [], not null.
	data, err := json.MarshalIndent(append([]Row{}, w...), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile writes the BENCH_sched.json layout to path.
func (w Writer) WriteFile(path string) error {
	data, err := w.MarshalWire()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// HistoryEntries renders every row's metrics as history lines keyed by
// the given commit SHA: one entry per (suite, label, metric).
func (w Writer) HistoryEntries(sha string) []gate.Entry {
	var out []gate.Entry
	for _, r := range w {
		for _, m := range r.Metrics() {
			out = append(out, gate.Entry{
				SHA:           sha,
				Suite:         r.Table,
				Metric:        r.Label + "/" + m.Name,
				Value:         m.Value,
				Unit:          m.Unit,
				Deterministic: gate.SuiteDeterministic(r.Table),
				TolerancePct:  r.TolerancePct,
			})
		}
	}
	return out
}

// AppendHistory appends the rows' metrics to the history file under the
// given commit SHA, creating the file as needed.
func (w Writer) AppendHistory(path, sha string) error {
	return gate.AppendEntries(path, w.HistoryEntries(sha))
}
