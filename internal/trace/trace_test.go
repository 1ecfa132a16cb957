package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
)

// TestNilTracerNoOp: every method is safe and free on a nil receiver.
func TestNilTracerNoOp(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: KindConfig})
	tr.SetSink(func(Event) {})
	tr.Reset()
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded events")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		tr.Emit(Event{Ts: 1, Dur: 2, Kind: KindConfig, Member: 0, Region: 0, ID: 3})
	}); allocs != 0 {
		t.Fatalf("nil Emit allocates: %v allocs/op", allocs)
	}
}

// TestEventsDeterministicOrder: the exported order is independent of
// emission interleaving.
func TestEventsDeterministicOrder(t *testing.T) {
	build := func(seed int64) []Event {
		rng := rand.New(rand.NewSource(seed))
		evs := make([]Event, 200)
		for i := range evs {
			evs[i] = Event{
				Ts:     sim.Time(rng.Intn(50)),
				Dur:    sim.Time(rng.Intn(5)),
				Kind:   Kind(rng.Intn(int(KindDMAWindow) + 1)),
				Member: int32(rng.Intn(3) - 1),
				Region: int32(rng.Intn(2) - 1),
				ID:     uint64(rng.Intn(20)),
			}
		}
		// Events equal but for one of the later fields: the total order
		// must still separate them.
		base := Event{Ts: 7, Kind: KindComplete, Member: 1, ID: 9, Name: "m"}
		for _, vary := range []func(*Event){
			func(e *Event) { e.Arg = 1 }, func(e *Event) { e.Bytes = 1 },
			func(e *Event) { e.Stream = 1 }, func(e *Event) { e.Hit = true },
			func(e *Event) { e.DMA = true }, func(e *Event) { e.Err = true },
		} {
			e := base
			vary(&e)
			evs = append(evs, base, e)
		}
		return evs
	}
	evs := build(7)
	a := New()
	for _, e := range evs {
		a.Emit(e)
	}
	// Same events, shuffled, emitted from concurrent goroutines.
	b := New()
	perm := rand.New(rand.NewSource(9)).Perm(len(evs))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(perm); i += 4 {
				b.Emit(evs[perm[i]])
			}
		}(w)
	}
	wg.Wait()

	var ba, bb bytes.Buffer
	if err := a.WriteChrome(&ba); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteChrome(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("chrome export differs across emission orders")
	}
}

// TestChromeExportShape: the export is valid JSON with the expected
// track metadata and span/instant phases.
func TestChromeExportShape(t *testing.T) {
	tr := New()
	tr.Emit(Event{Ts: 1_000_000_000, Dur: 2_000_000_000, Kind: KindConfig, Member: 0, Region: 1, ID: 1, Name: "jenkins", Arg: 4096})
	tr.Emit(Event{Ts: 5_000_000_000, Kind: KindComplete, Stream: 2, Hit: true, DMA: true, Err: true,
		Member: 0, Region: 1, ID: 1, Arg: 123, Bytes: 4096})
	tr.Emit(Event{Ts: 0, Kind: KindSubmit, Member: -1, Region: -1, ID: 1, Name: "jenkins"})
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var spans, instants, meta int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			spans++
			if e["dur"].(float64) != 2.0 {
				t.Fatalf("config span dur = %v µs, want 2", e["dur"])
			}
		case "i":
			instants++
			if e["cat"] == "complete" {
				// Every field the scheduler's fold reads survives export.
				want := map[string]any{"id": 1.0, "arg": 123.0, "bytes": 4096.0,
					"stream": 2.0, "hit": true, "dma": true, "err": true}
				if args := e["args"]; !reflect.DeepEqual(args, want) {
					t.Fatalf("complete args = %v, want %v", args, want)
				}
			}
		case "M":
			meta++
		}
	}
	if spans != 1 || instants != 2 || meta < 4 {
		t.Fatalf("spans=%d instants=%d meta=%d, want 1/2/≥4", spans, instants, meta)
	}
}

// TestSumDur: the conservation probe totals only the requested slot/kind.
func TestSumDur(t *testing.T) {
	evs := []Event{
		{Kind: KindConfig, Member: 0, Region: 0, Dur: 5},
		{Kind: KindConfig, Member: 0, Region: 0, Dur: 7},
		{Kind: KindConfig, Member: 1, Region: 0, Dur: 100},
		{Kind: KindCompute, Member: 0, Region: 0, Dur: 9},
	}
	if got := SumDur(evs, KindConfig, 0, 0); got != 12 {
		t.Fatalf("SumDur = %d, want 12", got)
	}
}

// TestSink: the sink observes every emitted event.
func TestSink(t *testing.T) {
	tr := New()
	var n int
	tr.SetSink(func(Event) { n++ })
	tr.Emit(Event{Kind: KindSubmit})
	tr.Emit(Event{Kind: KindComplete})
	if n != 2 {
		t.Fatalf("sink saw %d events, want 2", n)
	}
}
