package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bench/gate"
	"repro/internal/pool"
)

// TestSuiteShape drives every S-suite at reduced depth and checks the
// shape they all share: one run and one wire row per case, one table row
// per run with a cell per column, every row keyed under its suite's
// table ID and its case's label, and labels unique within the suite (the
// CI gate and the history store key rows as table/label).
func TestSuiteShape(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every suite")
	}
	w := DefaultWorkload()
	w.N = 12
	suites, err := Suites(w)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, s := range suites {
		ids = append(ids, s.ID)
		if s.ID == "S6" || s.ID == "S9" { // the 32-board capacity pool
			s.Workload.N = 120
			for i := range s.Cases {
				s.Cases[i].Pool = pool.Config{Sys32: 1}
			}
		}
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel()
			runs, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			rows, tb := s.Rows(runs), s.Table(runs)
			if len(runs) != len(s.Cases) || len(rows) != len(s.Cases) || len(tb.Rows) != len(rows) {
				t.Fatalf("%d cases, %d runs, %d rows, %d table rows", len(s.Cases), len(runs), len(rows), len(tb.Rows))
			}
			seen := map[string]bool{}
			for i, row := range rows {
				if row.Table != s.ID || row.Label != s.Cases[i].Label {
					t.Errorf("row %d keyed %s/%s, want %s/%s", i, row.Table, row.Label, s.ID, s.Cases[i].Label)
				}
				if seen[row.Label] {
					t.Errorf("label %q repeats", row.Label)
				}
				seen[row.Label] = true
				if len(tb.Rows[i]) != len(s.Columns) {
					t.Errorf("table row %d has %d cells for %d columns", i, len(tb.Rows[i]), len(s.Columns))
				}
			}
			var sb strings.Builder
			tb.Format(&sb)
			if !strings.HasPrefix(sb.String(), s.ID+" — "+s.Title) {
				t.Errorf("table does not open with its ID and title:\n%s", sb.String())
			}
			if gate.SuiteDeterministic(s.ID) {
				checkRowsGolden(t, s.ID, rows)
			}
		})
	}
	if got := strings.Join(ids, " "); got != "S2 S3 S4 S6 S7 S8 S9" {
		t.Errorf("suites %s, want S2 S3 S4 S6 S7 S8 S9 in table order", got)
	}
}

// checkRowsGolden pins a deterministic suite's rows field for field to
// testdata/rows_<suite>.golden.json; -update rewrites the file.
func checkRowsGolden(t *testing.T, suite string, rows []Row) {
	t.Helper()
	got, err := NewWriter(rows...).MarshalWire()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "rows_"+suite+".golden.json")
	if *updateHistoryGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to capture): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s rows differ from %s:\n got:\n%s\nwant:\n%s", suite, path, got, want)
	}
}

// TestDriveFailureDrains: a failing case returns its error only after
// the scheduler has drained — every request accounted in the run's
// Stats, no goroutine of the run left behind. The mixed workload on one
// 32-bit board fails at request 18, a sha1 no 32-bit slot supports,
// while the other requests keep running.
func TestDriveFailureDrains(t *testing.T) {
	w := DefaultWorkload()
	for _, kind := range []DriveKind{Concurrent, Paced, Paired, OpenLoop} {
		before := runtime.NumGoroutine()
		run, err := Drive(w, Case{Label: "sys32", Pool: pool.Config{Sys32: 1}, Policy: "lru", Rho: 1, Drive: kind})
		if err == nil || !strings.Contains(err.Error(), "sha1") {
			t.Fatalf("drive %d: err %v, want the unsupported sha1 request", kind, err)
		}
		if run.Stats.Done != uint64(w.N) {
			t.Errorf("drive %d returned with %d of %d requests done", kind, run.Stats.Done, w.N)
		}
		// A worker that has just released its slot may still be
		// returning; a leaked drive keeps its workers for far longer.
		deadline := time.Now().Add(20 * time.Millisecond)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("drive %d: %d goroutines before, %d after the failed run returned", kind, before, after)
		}
	}
}
