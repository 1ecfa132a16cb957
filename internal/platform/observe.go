package platform

// Trace wiring: SetTracer threads one tracer through a board's regions —
// the manager's §2.2 hazard verdicts and resident-state demotions, and
// each region dock's DMA port windows — and the load path books each plan
// it executes (planLoad, in execute.go). Every event is stamped with the
// member's simulated kernel time at the moment it happens (all of them
// under the system lock's serialization), so a traced run is reproducible
// byte for byte.

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// SetTracer installs the tracer on every region of this board, tagging
// events with the given pool member ID. Call before any traffic; pass nil
// to leave the board untraced (the default).
func (s *System) SetTracer(tr *trace.Tracer, member int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = tr
	s.traceMember = int32(member)
	for ri, rs := range s.regions {
		if tr == nil {
			rs.mgr.SetNotify(nil)
			rs.dma.SetObserver(nil)
			continue
		}
		region := int32(ri)
		rs.mgr.SetNotify(func(event, reason string) {
			kind := trace.KindDemote
			if event == "hazard" {
				kind = trace.KindHazard
			}
			tr.Emit(trace.Event{Ts: s.K.Now(), Kind: kind,
				Member: s.traceMember, Region: region, Name: reason})
		})
		rs.dma.SetObserver(func(start, done sim.Time, words int, compressed bool) {
			name := ""
			if compressed {
				name = "compressed"
			}
			tr.Emit(trace.Event{Ts: start, Dur: done - start, Kind: trace.KindDMAWindow,
				Member: s.traceMember, Region: region, Name: name, Bytes: int64(4 * words)})
		})
	}
}
