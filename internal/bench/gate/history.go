package gate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Entry is one line of the append-only per-commit metric history
// (artifacts/bench/history.jsonl): a single measured value keyed by commit
// SHA, suite and metric. `fpgad -compare -history` appends one entry per
// (label, metric) of every S-suite row; it is the store's only writer.
type Entry struct {
	SHA   string `json:"sha"`
	Suite string `json:"suite"`
	// Metric is "<label>/<metric name>" — the configuration row and the
	// measured quantity. Labels may themselves contain slashes
	// (shards-4/rho-4/poisson), so consumers split at the LAST one.
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	// Deterministic mirrors gate.SuiteDeterministic for the suite: true
	// rows reproduce byte-identically and gate hard, false rows are
	// host-dependent and gate only the metrics Gated names.
	Deterministic bool `json:"deterministic"`
	// TolerancePct is the row's gate band (0 = the gate default).
	TolerancePct float64 `json:"tolerance_pct,omitempty"`
}

// SplitMetric splits an Entry.Metric into its configuration label and
// metric name at the last slash.
func SplitMetric(metric string) (label, name string) {
	for i := len(metric) - 1; i >= 0; i-- {
		if metric[i] == '/' {
			return metric[:i], metric[i+1:]
		}
	}
	return "", metric
}

// AppendEntries appends one JSON object per entry to the history file,
// creating the file and its directory as needed. Appends are line-atomic
// for the sizes involved, so concurrent writers interleave whole lines.
func AppendEntries(path string, entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, e := range entries {
		data, err := json.Marshal(e)
		if err != nil {
			f.Close()
			return err
		}
		w.Write(data)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadEntries decodes a history stream, tolerating damage: a line that is
// not a complete JSON object (a torn tail from a killed run, editor
// garbage, a partial append) is skipped and counted rather than failing
// the read. Entries missing a SHA, suite or metric are damage too — a
// value no consumer could key.
func ReadEntries(r io.Reader) (entries []Entry, skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Entry
		if json.Unmarshal(line, &e) != nil || e.SHA == "" || e.Suite == "" || e.Metric == "" {
			skipped++
			continue
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return entries, skipped, fmt.Errorf("gate: history: %w", err)
	}
	return entries, skipped, nil
}

// LoadEntries reads a history file from disk. A missing file is an empty
// history, not an error — the store starts existing at first append.
func LoadEntries(path string) (entries []Entry, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	defer f.Close()
	return ReadEntries(f)
}
