// Package gate holds the bench-regression tolerance rules and the
// append-only per-commit metric history shared by the bench tooling:
// cmd/benchdiff (the CI pass/fail gate), internal/bench's Writer (which
// appends every S-suite metric to the history), and cmd/benchboard
// (which renders the history and flags the points this package would
// fail). Both callers judge a metric through Compare, so a trajectory
// annotation and a gate verdict cannot disagree about what counts as a
// regression.
//
// Two gating regimes coexist, keyed on the baseline value:
//
//   - A nonzero baseline gates on relative growth: the fresh value may
//     exceed the baseline by at most the record's tolerance band (its own
//     tolerance_pct when it carries one, DefaultTolerancePct otherwise).
//
//   - A zero baseline gates on absolute growth against a per-metric
//     epsilon. A percentage of zero is undefined: scaling any band by a
//     zero baseline would admit nothing, and mapping it to a fixed
//     percent would admit arbitrary absolute growth. The S6 capacity
//     drive leans on this rule — its all-hit rows pin config_ms and
//     bytes_streamed at exactly zero, so any future miss on the request
//     path is a hard failure, not a percentage.
package gate

// DefaultTolerancePct is the gate's default relative band: a metric may
// grow this many percent over its nonzero baseline before the gate fails.
// Records from inherently noisy configurations carry their own wider
// tolerance_pct, which overrides the default.
const DefaultTolerancePct = 15

// Per-metric absolute epsilons for zero baselines. Visible configuration
// time tolerates rounding dust (the records store milliseconds at
// microsecond precision); request-path bytes are integral and tolerate
// nothing.
const (
	ConfigMsZeroEps = 0.01
	BytesZeroEps    = 0
)

// Allowed resolves a record's effective relative band: its own tolerance
// when it carries one, the gate default otherwise.
func Allowed(tolerancePct float64) float64 {
	if tolerancePct > 0 {
		return tolerancePct
	}
	return DefaultTolerancePct
}

// SLOTolerancePct is the band of the S9 sojourn percentiles. They
// reproduce byte-identically, so any drift at all is a real latency
// change.
const SLOTolerancePct = 1

// band resolves the relative band, in percent, that a suite's metric is
// held to: SLOTolerancePct for the S9 sojourn percentiles, otherwise the
// row's own tolerance, or the default when it carries none.
func band(suite, metric string, tolerancePct float64) float64 {
	if suite == "S9" {
		switch metric {
		case "p50_ms", "p95_ms", "p99_ms":
			return SLOTolerancePct
		}
	}
	return Allowed(tolerancePct)
}

// higherBetter reports whether a metric regresses by falling: hidden and
// overlapped config time, availability and throughput. Everything else
// (times, bytes) regresses by growing.
func higherBetter(metric string) bool {
	switch metric {
	case "availability", "throughput_rps", "sim_throughput_rps", "hidden_ms", "overlap_ms":
		return true
	default:
		return false
	}
}

// Compare judges a fresh value of a suite's metric against its baseline,
// in the metric's direction and under the band of the suite, metric and
// row tolerance (0 = the default). Zero baselines of streamed bytes admit
// no growth at all; every other zero baseline admits ConfigMsZeroEps.
// cmd/benchdiff and cmd/benchboard both judge through it.
func Compare(suite, metric string, tolerancePct, base, fresh float64) Verdict {
	allowed := band(suite, metric, tolerancePct)
	if higherBetter(metric) {
		return CheckHigherBetter(base, fresh, allowed)
	}
	eps := ConfigMsZeroEps
	if metric == "bytes_streamed" {
		eps = BytesZeroEps
	}
	return Check(base, fresh, allowed, eps)
}

// Verdict is one metric comparison's outcome.
type Verdict struct {
	// Pass is false when the fresh value regressed beyond the band.
	Pass bool
	// Zero marks a zero-baseline comparison: Allowed is then the absolute
	// epsilon in the metric's own unit and DeltaPct is zero (undefined).
	Zero bool
	// DeltaPct is the relative change in percent against a nonzero
	// baseline; negative is an improvement.
	DeltaPct float64
	// Allowed is the band the comparison was held to: percent growth for
	// a nonzero baseline, absolute units for a zero one.
	Allowed float64
}

// Check gates a smaller-is-better metric (config time, streamed bytes,
// latency): fresh may exceed base by at most allowedPct percent, or — when
// base is zero — by at most zeroEps in absolute units.
func Check(base, fresh, allowedPct, zeroEps float64) Verdict {
	if base == 0 {
		return Verdict{Pass: fresh <= zeroEps, Zero: true, Allowed: zeroEps}
	}
	delta := 100 * (fresh - base) / base
	return Verdict{Pass: delta <= allowedPct, DeltaPct: delta, Allowed: allowedPct}
}

// CheckHigherBetter gates a bigger-is-better metric (availability,
// throughput, hidden config time): fresh may fall short of base by at most
// allowedPct percent. A zero baseline passes unconditionally — there is no
// level to fall from, and absolute-epsilon gating has no analogue for
// growth metrics.
func CheckHigherBetter(base, fresh, allowedPct float64) Verdict {
	if base == 0 {
		return Verdict{Pass: true, Zero: true}
	}
	delta := 100 * (fresh - base) / base
	return Verdict{Pass: delta >= -allowedPct, DeltaPct: delta, Allowed: allowedPct}
}

// SuiteDeterministic reports whether a bench suite's rows reproduce
// byte-identically run to run on one machine, which decides how their
// history gates: deterministic rows hold their tolerance band exactly,
// while host-dependent rows (concurrent SubmitAll placement in S2, real
// wall-clock dispatch throughput in S6) are informational — their gated metrics still pin through config_ms /
// bytes_streamed, but their measured fields swing with the host.
func SuiteDeterministic(suite string) bool {
	switch suite {
	case "S3", "S4", "S7", "S8", "S9":
		return true
	default:
		return false
	}
}
