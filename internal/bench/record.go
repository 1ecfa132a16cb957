package bench

import (
	"encoding/json"
	"fmt"

	"repro/internal/bench/gate"
)

// Metric is one measured quantity a record contributes to the per-commit
// trajectory store (artifacts/bench/history.jsonl).
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Record is one bench table row in typed form. Every suite's rows —
// ScheduleRecord (S2), PrefetchRecord (S3), RegionRecord (S4),
// ScalingRecord (S6), FaultRecord (S7), CompressRecord (S8),
// SLORecord (S9) — implement it, as does the raw wire row itself
// (PlacementRecord) for ad-hoc single runs. The Writer consumes Records
// to emit both the committed BENCH_sched.json layout and the history
// store.
type Record interface {
	// Suite is the table ID ("S2" … "S9", or "single" for ad-hoc runs).
	Suite() string
	// Key is the configuration label, unique within the suite; the CI
	// gate and the trajectory store key rows as Suite()/Key().
	Key() string
	// Deterministic reports whether the row reproduces byte-identically
	// run to run on one machine (see gate.SuiteDeterministic).
	Deterministic() bool
	// Tolerance is the row's CI-gate band in percent (0 = gate default).
	Tolerance() float64
	// Metrics lists the quantities the row contributes to the history.
	Metrics() []Metric
	// Wire is the row in the legacy BENCH_sched.json layout.
	Wire() PlacementRecord
}

// Base carries the scheduler economics every suite reports for one
// configuration row: identity, cache behaviour, stream mix, and the two
// CI-gated metrics (visible config time and request-path bytes). The
// typed records embed it and add their suite's own columns.
type Base struct {
	Label   string
	Policy  string
	Planner bool

	Requests      uint64
	Hits          uint64
	Misses        uint64
	HitRate       float64
	DiffLoads     uint64
	CompleteLoads uint64

	ConfigMs      float64
	WorkMs        float64
	BusyMs        float64
	BytesStreamed uint64
	SimUsPerReq   float64

	// TolerancePct is how much this configuration may regress before the
	// CI gate (cmd/benchdiff) fails, overriding the gate's default. The
	// paced deterministic rows gate tight; the SubmitAll S2 rows react to
	// goroutine completion order (placement follows whoever finishes
	// first) and swing up to ~30% run to run, so they carry a wider band —
	// still far inside the 5x planner-vs-complete signal they guard.
	TolerancePct float64
}

// Key implements Record.
func (b Base) Key() string { return b.Label }

// Tolerance implements Record.
func (b Base) Tolerance() float64 { return b.TolerancePct }

// wire fills the shared fields of the legacy layout.
func (b Base) wire(table string) PlacementRecord {
	return PlacementRecord{
		Table:         table,
		Label:         b.Label,
		Policy:        b.Policy,
		Planner:       b.Planner,
		Requests:      b.Requests,
		Hits:          b.Hits,
		Misses:        b.Misses,
		HitRate:       b.HitRate,
		DiffLoads:     b.DiffLoads,
		CompleteLoads: b.CompleteLoads,
		ConfigMs:      b.ConfigMs,
		WorkMs:        b.WorkMs,
		BusyMs:        b.BusyMs,
		BytesStreamed: b.BytesStreamed,
		SimUsPerReq:   b.SimUsPerReq,
		TolerancePct:  b.TolerancePct,
	}
}

// metrics lists the two quantities every suite contributes: the CI-gated
// pair the whole bench economy is priced in.
func (b Base) metrics() []Metric {
	return []Metric{
		{Name: "config_ms", Value: b.ConfigMs, Unit: "ms"},
		{Name: "bytes_streamed", Value: float64(b.BytesStreamed), Unit: "B"},
	}
}

// baseOf recovers a Base from a wire row.
func baseOf(w PlacementRecord) Base {
	return Base{
		Label:         w.Label,
		Policy:        w.Policy,
		Planner:       w.Planner,
		Requests:      w.Requests,
		Hits:          w.Hits,
		Misses:        w.Misses,
		HitRate:       w.HitRate,
		DiffLoads:     w.DiffLoads,
		CompleteLoads: w.CompleteLoads,
		ConfigMs:      w.ConfigMs,
		WorkMs:        w.WorkMs,
		BusyMs:        w.BusyMs,
		BytesStreamed: w.BytesStreamed,
		SimUsPerReq:   w.SimUsPerReq,
		TolerancePct:  w.TolerancePct,
	}
}

// baseFromRun fills the shared fields from a run's scheduler stats.
func baseFromRun(r PlacementRun, tolerancePct float64) Base {
	st := r.Stats
	var busy float64
	for _, b := range st.BusyTime {
		busy += float64(b.Microseconds())
	}
	base := Base{
		Label:         r.Label,
		Policy:        r.Policy,
		Planner:       r.Planner,
		Requests:      st.Done,
		Hits:          st.Hits,
		Misses:        st.Misses,
		HitRate:       st.HitRate(),
		DiffLoads:     st.DiffLoads,
		CompleteLoads: st.CompleteLoads,
		ConfigMs:      float64(st.Config.Microseconds()) / 1e3,
		WorkMs:        float64(st.Work.Microseconds()) / 1e3,
		BusyMs:        busy / 1e3,
		BytesStreamed: st.BytesStreamed,
		TolerancePct:  tolerancePct,
	}
	if st.Done > 0 {
		base.SimUsPerReq = busy / float64(st.Done)
	}
	return base
}

// Speculation carries the prefetch-pipeline columns shared by the S3
// prefetch rows and the S4 region rows (both drive the speculative
// configuration pipeline; S4's paced drive leaves Window zero).
type Speculation struct {
	Window              int
	Predictor           string
	PrefetchHits        uint64
	PrefetchAborted     uint64
	PrefetchBytes       uint64
	PrefetchWastedBytes uint64
	HiddenMs            float64
}

// speculationOf recovers the block from a wire row.
func speculationOf(w PlacementRecord) Speculation {
	return Speculation{
		Window:              w.Window,
		Predictor:           w.Predictor,
		PrefetchHits:        w.PrefetchHits,
		PrefetchAborted:     w.PrefetchAborted,
		PrefetchBytes:       w.PrefetchBytes,
		PrefetchWastedBytes: w.PrefetchWastedBytes,
		HiddenMs:            w.HiddenMs,
	}
}

// wireInto copies the block onto a wire row.
func (sp Speculation) wireInto(w *PlacementRecord) {
	w.Window = sp.Window
	w.Predictor = sp.Predictor
	w.PrefetchHits = sp.PrefetchHits
	w.PrefetchAborted = sp.PrefetchAborted
	w.PrefetchBytes = sp.PrefetchBytes
	w.PrefetchWastedBytes = sp.PrefetchWastedBytes
	w.HiddenMs = sp.HiddenMs
}

// ScheduleRecord is one S2 placement row: the concurrent SubmitAll drive
// comparing placement policy and stream planning.
type ScheduleRecord struct{ Base }

// Suite implements Record.
func (ScheduleRecord) Suite() string { return "S2" }

// Deterministic implements Record: SubmitAll placement follows goroutine
// completion order, so S2 rows are host-dependent.
func (ScheduleRecord) Deterministic() bool { return false }

// Metrics implements Record.
func (r ScheduleRecord) Metrics() []Metric { return r.metrics() }

// Wire implements Record.
func (r ScheduleRecord) Wire() PlacementRecord { return r.wire("S2") }

// PrefetchRecord is one S3 prefetch row: the paced window-1 drive
// measuring how much visible configuration time speculation hides.
type PrefetchRecord struct {
	Base
	Speculation
}

// Suite implements Record.
func (PrefetchRecord) Suite() string { return "S3" }

// Deterministic implements Record: paced and settled, byte-identical.
func (PrefetchRecord) Deterministic() bool { return true }

// Metrics implements Record.
func (r PrefetchRecord) Metrics() []Metric {
	return append(r.metrics(), Metric{Name: "hidden_ms", Value: r.HiddenMs, Unit: "ms"})
}

// Wire implements Record.
func (r PrefetchRecord) Wire() PlacementRecord {
	w := r.wire("S3")
	r.Speculation.wireInto(&w)
	return w
}

// RegionRecord is one S4 region-granularity row: equal total fabric
// organized as different region counts, paced like S3.
type RegionRecord struct {
	Base
	Speculation
}

// Suite implements Record.
func (RegionRecord) Suite() string { return "S4" }

// Deterministic implements Record.
func (RegionRecord) Deterministic() bool { return true }

// Metrics implements Record.
func (r RegionRecord) Metrics() []Metric {
	return append(r.metrics(), Metric{Name: "hidden_ms", Value: r.HiddenMs, Unit: "ms"})
}

// Wire implements Record.
func (r RegionRecord) Wire() PlacementRecord {
	w := r.wire("S4")
	r.Speculation.wireInto(&w)
	return w
}

// ScalingRecord is one S6 scaling-sweep cell: the sharded dispatcher
// under an open-loop all-hit capacity drive at one (shard count, offered
// load) point.
type ScalingRecord struct {
	Base
	Shards           int
	OfferedLoad      float64
	Process          string
	ThroughputRPS    float64
	SimThroughputRPS float64
	P50Ms            float64
	P95Ms            float64
	P99Ms            float64
	Steals           uint64
	StolenRequests   uint64
}

// Suite implements Record.
func (ScalingRecord) Suite() string { return "S6" }

// Deterministic implements Record: real throughput is host wall-clock and
// the percentiles ride concurrent placement. The gated config_ms /
// bytes_streamed stay exact — zero by the all-hit construction.
func (ScalingRecord) Deterministic() bool { return false }

// Metrics implements Record.
func (r ScalingRecord) Metrics() []Metric {
	return append(r.metrics(),
		Metric{Name: "throughput_rps", Value: r.ThroughputRPS, Unit: "req/s"},
		Metric{Name: "p99_ms", Value: r.P99Ms, Unit: "ms"})
}

// Wire implements Record.
func (r ScalingRecord) Wire() PlacementRecord {
	w := r.wire("S6")
	w.Shards = r.Shards
	w.OfferedLoad = r.OfferedLoad
	w.ArrivalProcess = r.Process
	w.ThroughputRPS = r.ThroughputRPS
	w.SimThroughputRPS = r.SimThroughputRPS
	w.P50Ms = r.P50Ms
	w.P95Ms = r.P95Ms
	w.P99Ms = r.P99Ms
	w.Steals = r.Steals
	w.StolenRequests = r.StolenRequests
	return w
}

// FaultRecord is one S7 availability row: the paced drive under one
// seeded upset scenario with the scrub/quarantine/repair loop on.
type FaultRecord struct {
	Base
	FaultsInjected uint64
	FaultsDetected uint64
	Requeues       uint64
	Repairs        uint64
	RepairMs       float64
	Availability   float64
	P99Ms          float64
}

// Suite implements Record.
func (FaultRecord) Suite() string { return "S7" }

// Deterministic implements Record: seeded scenario, paced drive.
func (FaultRecord) Deterministic() bool { return true }

// Metrics implements Record.
func (r FaultRecord) Metrics() []Metric {
	return append(r.metrics(),
		Metric{Name: "availability", Value: r.Availability, Unit: "frac"},
		Metric{Name: "repair_ms", Value: r.RepairMs, Unit: "ms"})
}

// Wire implements Record.
func (r FaultRecord) Wire() PlacementRecord {
	w := r.wire("S7")
	w.FaultsInjected = r.FaultsInjected
	w.FaultsDetected = r.FaultsDetected
	w.Requeues = r.Requeues
	w.Repairs = r.Repairs
	w.RepairMs = r.RepairMs
	w.Availability = r.Availability
	w.P99Ms = r.P99Ms
	return w
}

// CompressRecord is one S8 load-path row: the paired deterministic drive
// comparing complete / differential / compressed / compressed+DMA
// configuration.
type CompressRecord struct {
	Base
	CompressedLoads uint64
	DMALoads        uint64
	OverlapMs       float64
	Availability    float64
}

// Suite implements Record.
func (CompressRecord) Suite() string { return "S8" }

// Deterministic implements Record: the paired drive is deterministic.
func (CompressRecord) Deterministic() bool { return true }

// Metrics implements Record.
func (r CompressRecord) Metrics() []Metric {
	return append(r.metrics(),
		Metric{Name: "availability", Value: r.Availability, Unit: "frac"},
		Metric{Name: "overlap_ms", Value: r.OverlapMs, Unit: "ms"})
}

// Wire implements Record.
func (r CompressRecord) Wire() PlacementRecord {
	w := r.wire("S8")
	w.CompressedLoads = r.CompressedLoads
	w.DMALoads = r.DMALoads
	w.OverlapMs = r.OverlapMs
	w.Availability = r.Availability
	return w
}

// SLORecord is one S9 latency-SLO row: the S6 arrival traces replayed
// against pinned placement through the deterministic k-server overlay.
// The percentile columns are the suite's point — deterministic sojourn
// p50/p95/p99, each a gated metric rather than an informational one.
type SLORecord struct {
	Base
	Process          string
	OfferedLoad      float64
	P50Ms            float64
	P95Ms            float64
	P99Ms            float64
	SimThroughputRPS float64
}

// Suite implements Record.
func (SLORecord) Suite() string { return "S9" }

// Deterministic implements Record: paced service measurement plus
// arithmetic replay, byte-identical run to run.
func (SLORecord) Deterministic() bool { return true }

// Metrics implements Record: the three SLO percentiles gate alongside
// the economy pair.
func (r SLORecord) Metrics() []Metric {
	return append(r.metrics(),
		Metric{Name: "p50_ms", Value: r.P50Ms, Unit: "ms"},
		Metric{Name: "p95_ms", Value: r.P95Ms, Unit: "ms"},
		Metric{Name: "p99_ms", Value: r.P99Ms, Unit: "ms"})
}

// Wire implements Record.
func (r SLORecord) Wire() PlacementRecord {
	w := r.wire("S9")
	w.ArrivalProcess = r.Process
	w.OfferedLoad = r.OfferedLoad
	w.P50Ms = r.P50Ms
	w.P95Ms = r.P95Ms
	w.P99Ms = r.P99Ms
	w.SimThroughputRPS = r.SimThroughputRPS
	return w
}

// Suite implements Record for the raw wire row: ad-hoc single runs tag
// themselves "single" (or leave the table empty in pre-gate files).
func (r PlacementRecord) Suite() string {
	if r.Table == "" {
		return "single"
	}
	return r.Table
}

// Key implements Record.
func (r PlacementRecord) Key() string { return r.Label }

// Deterministic implements Record.
func (r PlacementRecord) Deterministic() bool { return gate.SuiteDeterministic(r.Suite()) }

// Tolerance implements Record.
func (r PlacementRecord) Tolerance() float64 { return r.TolerancePct }

// Metrics implements Record: a raw row contributes only the gated pair.
func (r PlacementRecord) Metrics() []Metric {
	return []Metric{
		{Name: "config_ms", Value: r.ConfigMs, Unit: "ms"},
		{Name: "bytes_streamed", Value: float64(r.BytesStreamed), Unit: "B"},
	}
}

// Wire implements Record.
func (r PlacementRecord) Wire() PlacementRecord { return r }

// FromWire lifts a wire row into its suite's typed record. Rows of
// unknown tables (ad-hoc "single" runs, future suites) stay raw — the
// wire row itself implements Record.
func FromWire(w PlacementRecord) Record {
	switch w.Table {
	case "S2":
		return ScheduleRecord{Base: baseOf(w)}
	case "S3":
		return PrefetchRecord{Base: baseOf(w), Speculation: speculationOf(w)}
	case "S4":
		return RegionRecord{Base: baseOf(w), Speculation: speculationOf(w)}
	case "S6":
		return ScalingRecord{
			Base:             baseOf(w),
			Shards:           w.Shards,
			OfferedLoad:      w.OfferedLoad,
			Process:          w.ArrivalProcess,
			ThroughputRPS:    w.ThroughputRPS,
			SimThroughputRPS: w.SimThroughputRPS,
			P50Ms:            w.P50Ms,
			P95Ms:            w.P95Ms,
			P99Ms:            w.P99Ms,
			Steals:           w.Steals,
			StolenRequests:   w.StolenRequests,
		}
	case "S7":
		return FaultRecord{
			Base:           baseOf(w),
			FaultsInjected: w.FaultsInjected,
			FaultsDetected: w.FaultsDetected,
			Requeues:       w.Requeues,
			Repairs:        w.Repairs,
			RepairMs:       w.RepairMs,
			Availability:   w.Availability,
			P99Ms:          w.P99Ms,
		}
	case "S8":
		return CompressRecord{
			Base:            baseOf(w),
			CompressedLoads: w.CompressedLoads,
			DMALoads:        w.DMALoads,
			OverlapMs:       w.OverlapMs,
			Availability:    w.Availability,
		}
	case "S9":
		return SLORecord{
			Base:             baseOf(w),
			Process:          w.ArrivalProcess,
			OfferedLoad:      w.OfferedLoad,
			P50Ms:            w.P50Ms,
			P95Ms:            w.P95Ms,
			P99Ms:            w.P99Ms,
			SimThroughputRPS: w.SimThroughputRPS,
		}
	default:
		return w
	}
}

// DecodeRecords parses a BENCH_sched.json-layout document into typed
// records — the inverse of Writer.MarshalWire, used by cmd/benchboard to
// lift archived snapshots into the history store.
func DecodeRecords(data []byte) ([]Record, error) {
	var wires []PlacementRecord
	if err := json.Unmarshal(data, &wires); err != nil {
		return nil, fmt.Errorf("bench: decode records: %w", err)
	}
	recs := make([]Record, len(wires))
	for i, w := range wires {
		recs[i] = FromWire(w)
	}
	return recs, nil
}
