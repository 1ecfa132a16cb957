package bench

// Row is one bench table row in the on-disk layout of BENCH_sched.json —
// the format the CI bench gate (cmd/benchdiff) keys on table+label and
// diffs the gated metrics of, and the only record type the suites emit.
// The field ORDER and omitempty tags are load-bearing, because the
// committed baseline is diffed byte-for-byte (a golden test pins the
// round trip). A row carries what its run measured: counters a drive
// cannot produce stay zero and are omitted.
type Row struct {
	Table         string  `json:"table"`
	Label         string  `json:"label"`
	Policy        string  `json:"policy"`
	Planner       bool    `json:"planner"`
	Requests      uint64  `json:"requests"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	HitRate       float64 `json:"hit_rate"`
	DiffLoads     uint64  `json:"diff_loads"`
	CompleteLoads uint64  `json:"complete_loads"`
	ConfigMs      float64 `json:"config_ms"`
	WorkMs        float64 `json:"work_ms"`
	BusyMs        float64 `json:"busy_ms"`
	BytesStreamed uint64  `json:"bytes_streamed"`
	SimUsPerReq   float64 `json:"sim_us_per_req"`

	Window              int     `json:"window,omitempty"`
	Predictor           string  `json:"predictor,omitempty"`
	PrefetchHits        uint64  `json:"prefetch_hits,omitempty"`
	PrefetchAborted     uint64  `json:"prefetch_aborted,omitempty"`
	PrefetchBytes       uint64  `json:"prefetch_bytes,omitempty"`
	PrefetchWastedBytes uint64  `json:"prefetch_wasted_bytes,omitempty"`
	HiddenMs            float64 `json:"hidden_ms,omitempty"`

	// S8 compressed/DMA load-path fields; zero for the other tables.
	CompressedLoads uint64  `json:"compressed_loads,omitempty"`
	DMALoads        uint64  `json:"dma_loads,omitempty"`
	OverlapMs       float64 `json:"overlap_ms,omitempty"`

	// S6 open-loop scaling fields; zero for the other tables. The
	// throughput fields are host wall-clock measurements and the
	// percentiles depend on concurrent placement, so none of them are
	// gated — the gate pins S6 through its zero config_ms/bytes_streamed
	// (the all-hit invariant of the capacity drive).
	Shards           int     `json:"shards,omitempty"`
	OfferedLoad      float64 `json:"offered_load,omitempty"`
	ArrivalProcess   string  `json:"arrival_process,omitempty"`
	ThroughputRPS    float64 `json:"throughput_rps,omitempty"`
	SimThroughputRPS float64 `json:"sim_throughput_rps,omitempty"`
	P50Ms            float64 `json:"p50_ms,omitempty"`
	P95Ms            float64 `json:"p95_ms,omitempty"`
	Steals           uint64  `json:"steals,omitempty"`
	StolenRequests   uint64  `json:"stolen_requests,omitempty"`

	// S7 fault fields; zero for the other tables.
	FaultsInjected uint64  `json:"faults_injected,omitempty"`
	FaultsDetected uint64  `json:"faults_detected,omitempty"`
	Requeues       uint64  `json:"requeues,omitempty"`
	Repairs        uint64  `json:"repairs,omitempty"`
	RepairMs       float64 `json:"repair_ms,omitempty"`
	Availability   float64 `json:"availability,omitempty"`
	P99Ms          float64 `json:"p99_ms,omitempty"`

	// TolerancePct is how much this configuration may regress before the
	// CI gate (cmd/benchdiff) fails, overriding the gate's default. The
	// paced S3 rows are deterministic and gate tight; the SubmitAll S2
	// rows react to goroutine completion order (placement follows whoever
	// finishes first), so they carry a 40% band, still far inside the 5x
	// planner-vs-complete signal they guard. Their bytes_streamed has
	// been measured up to +84.8% over the baseline, failing the band in
	// about one gate run in ten; a deterministic executor (ROADMAP item
	// 3) is the fix, not a wider band.
	TolerancePct float64 `json:"tolerance_pct,omitempty"`
}

// Metric is one measured quantity a row contributes to the per-commit
// trajectory store (artifacts/bench/history.jsonl).
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Metrics lists the quantities the row contributes to the history: the
// pair the whole bench economy is priced in, then its suite's own
// columns. cmd/benchdiff compares the ones gate.Gated names: the pair on
// every row, and every metric of a deterministic suite.
func (r Row) Metrics() []Metric {
	ms := []Metric{
		{Name: "config_ms", Value: r.ConfigMs, Unit: "ms"},
		{Name: "bytes_streamed", Value: float64(r.BytesStreamed), Unit: "B"},
	}
	switch r.Table {
	case "S3", "S4":
		ms = append(ms, Metric{Name: "hidden_ms", Value: r.HiddenMs, Unit: "ms"})
	case "S6":
		ms = append(ms,
			Metric{Name: "throughput_rps", Value: r.ThroughputRPS, Unit: "req/s"},
			Metric{Name: "p99_ms", Value: r.P99Ms, Unit: "ms"})
	case "S7":
		ms = append(ms,
			Metric{Name: "availability", Value: r.Availability, Unit: "frac"},
			Metric{Name: "repair_ms", Value: r.RepairMs, Unit: "ms"})
	case "S8":
		ms = append(ms,
			Metric{Name: "availability", Value: r.Availability, Unit: "frac"},
			Metric{Name: "overlap_ms", Value: r.OverlapMs, Unit: "ms"})
	case "S9":
		// Deterministic sojourn percentiles: the three SLO columns gate
		// alongside the economy pair.
		ms = append(ms,
			Metric{Name: "p50_ms", Value: r.P50Ms, Unit: "ms"},
			Metric{Name: "p95_ms", Value: r.P95Ms, Unit: "ms"},
			Metric{Name: "p99_ms", Value: r.P99Ms, Unit: "ms"})
	}
	return ms
}
