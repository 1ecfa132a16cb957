package trace

// Chrome trace-event JSON export (the Perfetto/chrome://tracing format).
// One process per pool member (pid = member+1; pid 0 is the scheduler
// control plane), one thread per dynamic region (tid = region+1; tid 0 is
// the member's control track), timestamps in microseconds of simulated
// time. Spans render as "X" complete events, instants as "i" events, so a
// loaded trace draws config/compute/overlap lanes exactly as the paper's
// timeline figures do. Events are emitted in the Tracer's total order and
// every record is marshalled from a fixed struct, so the output bytes are
// a pure function of the event set.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

type chromeEvent struct {
	Ph   string         `json:"ph"`
	Pid  int32          `json:"pid"`
	Tid  int32          `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	S    string         `json:"s,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Name string         `json:"name"`
	Args map[string]any `json:"args,omitempty"`
}

// usec converts femtoseconds of simulated time to trace microseconds.
func usec(fs int64) float64 { return float64(fs) / 1e9 }

// WriteChrome renders the tracer's events as Chrome trace-event JSON.
func (t *Tracer) WriteChrome(w io.Writer) error {
	return WriteChrome(w, t.Events())
}

// WriteChrome renders an event slice (already in a deterministic order)
// as Chrome trace-event JSON, one record per line.
func WriteChrome(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "{\"traceEvents\":[\n")
	first := true
	put := func(e chromeEvent) error {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if !first {
			fmt.Fprint(bw, ",\n")
		}
		first = false
		bw.Write(b)
		return nil
	}

	// Metadata: name every process and thread that appears, in sorted
	// track order, before any timed event.
	type track struct{ pid, tid int32 }
	seen := map[track]bool{}
	var tracks []track
	for _, e := range events {
		tr := track{e.Member + 1, e.Region + 1}
		if !seen[tr] {
			seen[tr] = true
			tracks = append(tracks, tr)
		}
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].pid != tracks[j].pid {
			return tracks[i].pid < tracks[j].pid
		}
		return tracks[i].tid < tracks[j].tid
	})
	lastPid := int32(-1)
	for _, tr := range tracks {
		if tr.pid != lastPid {
			lastPid = tr.pid
			pname := fmt.Sprintf("member %d", tr.pid-1)
			if tr.pid == 0 {
				pname = "scheduler"
			}
			if err := put(chromeEvent{Ph: "M", Pid: tr.pid, Name: "process_name",
				Args: map[string]any{"name": pname}}); err != nil {
				return err
			}
		}
		tname := fmt.Sprintf("region %d", tr.tid-1)
		if tr.tid == 0 {
			tname = "ctl"
		}
		if err := put(chromeEvent{Ph: "M", Pid: tr.pid, Tid: tr.tid, Name: "thread_name",
			Args: map[string]any{"name": tname}}); err != nil {
			return err
		}
	}

	for _, e := range events {
		ce := chromeEvent{
			Pid:  e.Member + 1,
			Tid:  e.Region + 1,
			Ts:   usec(int64(e.Ts)),
			Cat:  e.Kind.String(),
			Name: e.Kind.String(),
		}
		if e.Name != "" {
			ce.Name = e.Kind.String() + " " + e.Name
		}
		args := map[string]any{}
		if e.ID != 0 {
			args["id"] = e.ID
		}
		if e.Name != "" {
			args["name"] = e.Name
		}
		if e.Arg != 0 {
			args["arg"] = e.Arg
		}
		if e.Bytes != 0 {
			args["bytes"] = e.Bytes
		}
		if e.Stream != 0 {
			args["stream"] = e.Stream
		}
		if e.Hit {
			args["hit"] = true
		}
		if e.DMA {
			args["dma"] = true
		}
		if e.Err {
			args["err"] = true
		}
		if len(args) > 0 {
			ce.Args = args
		}
		if e.Dur > 0 {
			d := usec(int64(e.Dur))
			ce.Ph, ce.Dur = "X", &d
		} else {
			ce.Ph, ce.S = "i", "t"
		}
		if err := put(ce); err != nil {
			return err
		}
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}
