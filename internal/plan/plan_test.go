package plan

import (
	"fmt"
	"testing"
)

// fakeSource is an in-memory stream catalog.
type fakeSource struct {
	complete map[string]int    // module -> bytes
	diff     map[[2]string]int // (from,to) -> bytes
}

func newFakeSource() *fakeSource {
	return &fakeSource{
		complete: map[string]int{"a": 1000, "b": 1000, "c": 1000},
		diff: map[[2]string]int{
			{"", "a"}:  200,
			{"", "b"}:  300,
			{"a", "b"}: 120,
			{"b", "a"}: 130,
			{"a", "c"}: 2000, // pathological: differential bigger than complete
		},
	}
}

func (f *fakeSource) Has(name string) bool { _, ok := f.complete[name]; return ok }

func (f *fakeSource) CompleteSize(name string) (int, int, error) {
	b, ok := f.complete[name]
	if !ok {
		return 0, 0, fmt.Errorf("unknown %s", name)
	}
	return b, b / 100, nil
}

func (f *fakeSource) DifferentialSize(from, to string) (int, int, error) {
	b, ok := f.diff[[2]string{from, to}]
	if !ok {
		return 0, 0, fmt.Errorf("no differential %s->%s", from, to)
	}
	return b, b / 100, nil
}

// Compressed containers in the fake shave 60% off the wire size of the
// stream they encode; the raw size stays the source stream's.
func (f *fakeSource) CompressedSize(from, to string) (int, int, int, error) {
	b, ok := f.diff[[2]string{from, to}]
	if !ok {
		return 0, 0, 0, fmt.Errorf("no differential %s->%s", from, to)
	}
	return b * 2 / 5, b, b / 100, nil
}

func (f *fakeSource) CompleteCompressedSize(name string) (int, int, int, error) {
	b, ok := f.complete[name]
	if !ok {
		return 0, 0, 0, fmt.Errorf("unknown %s", name)
	}
	return b * 9 / 10, b, b / 100, nil
}

func TestPlanChoosesCheapestSafeStream(t *testing.T) {
	src := newFakeSource()
	p := New(src)

	cases := []struct {
		resident string
		auth     bool
		want     string
		kind     StreamKind
		bytes    int
	}{
		{"a", true, "a", StreamNone, 0},           // already resident
		{"", true, "a", StreamDifferential, 200},  // diff against blank baseline
		{"a", true, "b", StreamDifferential, 120}, // cheapest transition
		{"a", false, "b", StreamComplete, 1000},   // not authoritative: gate forces complete
		{"a", false, "a", StreamComplete, 1000},   // even "same module" is not trusted
		{"a", true, "c", StreamComplete, 1000},    // differential larger than complete
		{"b", true, "c", StreamComplete, 1000},    // no differential for this pair
	}
	for _, tc := range cases {
		got, err := p.Plan(tc.resident, tc.auth, tc.want)
		if err != nil {
			t.Fatalf("Plan(%q,%v,%q): %v", tc.resident, tc.auth, tc.want, err)
		}
		if got.Kind != tc.kind || got.Bytes != tc.bytes || got.Module != tc.want {
			t.Errorf("Plan(%q,%v,%q) = %+v, want kind %v bytes %d",
				tc.resident, tc.auth, tc.want, got, tc.kind, tc.bytes)
		}
		if got.Kind == StreamDifferential && got.From != tc.resident {
			t.Errorf("differential plan %+v does not carry the assumed from-state %q", got, tc.resident)
		}
	}
	if _, err := p.Plan("", true, "nope"); err == nil {
		t.Fatal("unknown module planned")
	}
}

func TestPlanCompression(t *testing.T) {
	src := newFakeSource()
	p := New(src)
	p.SetCompression(true)

	// Authoritative transition: the compressed differential container (40%
	// of the differential's wire size) wins.
	got, err := p.Plan("a", true, "b")
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != StreamCompressed || got.Base != StreamDifferential {
		t.Fatalf("plan = %+v, want compressed differential", got)
	}
	if got.Bytes != 120*2/5 || got.Raw != 120 || got.From != "a" {
		t.Fatalf("compressed plan sized %+v, want wire %d raw %d from a", got, 120*2/5, 120)
	}

	// Non-authoritative state: only state-independent candidates; the
	// RLE-only complete container undercuts the complete stream.
	got, err = p.Plan("a", false, "b")
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != StreamCompressed || got.Base != StreamComplete || got.From != "" {
		t.Fatalf("non-authoritative plan = %+v, want compressed complete", got)
	}
	if got.Bytes != 900 || got.Raw != 1000 {
		t.Fatalf("compressed complete sized %+v, want wire 900 raw 1000", got)
	}

	// Compression off: byte-identical to the three-kind planner.
	p.SetCompression(false)
	got, err = p.Plan("a", true, "b")
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != StreamDifferential || got.Bytes != 120 {
		t.Fatalf("plan with compression off = %+v, want plain differential", got)
	}
}

func TestRestoreBytesCompression(t *testing.T) {
	src := newFakeSource()
	p := New(src)

	// Compression off: the blank-baseline differential, falling back to
	// the complete stream when no differential exists — byte-identical to
	// the pre-compression estimate.
	if b, err := p.RestoreBytes("a"); err != nil || b != 200 {
		t.Fatalf("RestoreBytes(a) = %d, %v; want blank differential 200", b, err)
	}
	if b, err := p.RestoreBytes("c"); err != nil || b != 1000 {
		t.Fatalf("RestoreBytes(c) = %d, %v; want complete fallback 1000", b, err)
	}

	// Compression on: the estimate drops to the wire size Plan would
	// actually stream — the compressed blank differential for a (40% of
	// 200), the compressed complete container for c (90% of 1000, no
	// blank differential exists).
	p.SetCompression(true)
	if b, err := p.RestoreBytes("a"); err != nil || b != 200*2/5 {
		t.Fatalf("RestoreBytes(a) with compression = %d, %v; want compressed differential %d", b, err, 200*2/5)
	}
	if b, err := p.RestoreBytes("c"); err != nil || b != 900 {
		t.Fatalf("RestoreBytes(c) with compression = %d, %v; want compressed complete 900", b, err)
	}

	// Toggling back off restores the uncompressed estimate (compressed
	// sizes must not leak into the plain path).
	p.SetCompression(false)
	if b, err := p.RestoreBytes("a"); err != nil || b != 200 {
		t.Fatalf("RestoreBytes(a) after toggle = %d, %v; want 200", b, err)
	}
	if _, err := p.RestoreBytes("nope"); err == nil {
		t.Fatal("unknown module estimated")
	}
}
