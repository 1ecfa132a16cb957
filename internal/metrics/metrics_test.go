package metrics

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	r.Counter("reqs").Add(3)
	r.Counter("reqs").Inc()
	if got := r.Counter("reqs").Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat_ms", []float64{1, 10})
	for _, v := range []float64{0.5, 1.0, 5, 100} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{
		`lat_ms_bucket{le="1"} 2`,  // 0.5 and the boundary value 1.0
		`lat_ms_bucket{le="10"} 3`, // + 5
		`lat_ms_bucket{le="+Inf"} 4`,
		`lat_ms_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	build := func() *Registry {
		r := New()
		r.Counter(`ev{kind="a"}`).Inc()
		r.Counter(`ev{kind="b"}`).Add(2)
		r.Histogram("h", []float64{1, 2}).Observe(1.5)
		return r
	}
	var a, b bytes.Buffer
	build().WriteText(&a)
	build().WriteText(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("exposition not deterministic")
	}
	if !strings.Contains(a.String(), "# TYPE ev counter") {
		t.Fatalf("missing TYPE line:\n%s", a.String())
	}
}

func TestFeedTracer(t *testing.T) {
	tr := trace.New()
	r := New()
	FeedTracer(tr, r)
	tr.Emit(trace.Event{Kind: trace.KindConfig, Dur: 2_000_000_000_000}) // 2 ms
	tr.Emit(trace.Event{Kind: trace.KindComplete, Arg: 5_000_000_000_000})
	tr.Emit(trace.Event{Kind: trace.KindSubmit})
	if got := r.Counter(`fpgad_trace_events_total{kind="config"}`).Value(); got != 1 {
		t.Fatalf("config counter = %d, want 1", got)
	}
	if got := r.Histogram("fpgad_config_span_ms", nil).Count(); got != 1 {
		t.Fatalf("config histogram count = %d, want 1", got)
	}
	if got := r.Histogram("fpgad_sojourn_ms", nil).Count(); got != 1 {
		t.Fatalf("sojourn histogram count = %d, want 1", got)
	}
}
