// Package metrics is a small dependency-free registry of counters and
// fixed-bucket histograms with a Prometheus-style text exposition.
// The trace sink feeds it (FeedTracer), so every traced run doubles as a
// scrape target: fpgad mounts WriteText on the -pprof mux at /metrics.
//
// Metric names may carry a label set in Prometheus brace syntax
// (`events_total{kind="config"}`): the registry treats the full string as
// the identity and the text writer sorts by it, so exposition order is
// deterministic.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the counter.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram counts observations into fixed upper-bound buckets (plus the
// implicit +Inf bucket) and tracks sum and count.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	n      uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// Count reports how many samples were observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Registry holds named metrics. The zero value is not ready; use New.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it with the given
// upper bounds on first use (bounds are ignored on later lookups).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
		r.histograms[name] = h
	}
	return h
}

// baseName strips a label set from a metric name for TYPE lines.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// labelSuffix returns the label set of a metric name including braces
// ("" when unlabelled).
func labelSuffix(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[i:]
	}
	return ""
}

// WriteText renders the registry in the Prometheus text exposition
// format, sorted by metric name — deterministic for a fixed state.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	cnames := make([]string, 0, len(r.counters))
	for n := range r.counters {
		cnames = append(cnames, n)
	}
	hnames := make([]string, 0, len(r.histograms))
	for n := range r.histograms {
		hnames = append(hnames, n)
	}
	r.mu.Unlock()
	sort.Strings(cnames)
	sort.Strings(hnames)

	typed := map[string]bool{}
	for _, n := range cnames {
		if base := baseName(n); !typed[base] {
			typed[base] = true
			fmt.Fprintf(w, "# TYPE %s counter\n", base)
		}
		fmt.Fprintf(w, "%s %d\n", n, r.Counter(n).Value())
	}
	for _, n := range hnames {
		base, labels := baseName(n), labelSuffix(n)
		if !typed[base] {
			typed[base] = true
			fmt.Fprintf(w, "# TYPE %s histogram\n", base)
		}
		h := r.histograms[n]
		h.mu.Lock()
		cum := uint64(0)
		for i, b := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(w, "%s_bucket%s %d\n", base, mergeLabel(labels, fmt.Sprintf("le=%q", fmtBound(b))), cum)
		}
		cum += h.counts[len(h.bounds)]
		fmt.Fprintf(w, "%s_bucket%s %d\n", base, mergeLabel(labels, `le="+Inf"`), cum)
		fmt.Fprintf(w, "%s_sum%s %g\n", base, labels, h.sum)
		fmt.Fprintf(w, "%s_count%s %d\n", base, labels, h.n)
		h.mu.Unlock()
	}
}

// fmtBound renders a bucket bound compactly ("0.5", "10", "2500").
func fmtBound(b float64) string { return fmt.Sprintf("%g", b) }

// mergeLabel inserts an extra label into an existing label set ("" set →
// a fresh one).
func mergeLabel(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}
