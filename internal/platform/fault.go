package platform

// Fault injection and readback scrubbing. A System models one board whose
// configuration SRAM takes soft errors: InjectFaultOn flips a bit inside a
// dynamic region's frame band, ScrubOn has the region manager hash the
// region's content and compare it with the hash its last configuration
// was verified against. Detection demotes the region's resident state
// through the same §2.2 hazard gate an aborted speculative stream uses, so
// recovery is safe by construction — the next load of the region must
// stream a complete configuration, which rewrites every span frame and
// heals the flip as a side effect.

import (
	"fmt"

	"repro/internal/sim"
)

// ScrubReport is the outcome of one readback scrub of a dynamic region.
type ScrubReport struct {
	// Region names the scrubbed dynamic region.
	Region string
	// Detected reports a region content hash that no longer matches the
	// verified one: the region's resident state has been demoted and its
	// next load will stream complete.
	Detected bool
	// Module is the resident the region lost to the fault ("" when the
	// region was blank) — what a repair reloads to return the slot to its
	// pre-fault warmth.
	Module string
	// At is the member's simulated time when the pass ran. Trace events
	// of the pass and of its quarantine are stamped with it.
	At sim.Time
}

// ScrubOn runs one readback scrub pass over the region (a content hash
// compared with the verified one) under the system lock: a scrub racing an
// in-flight speculative stream serializes behind it (and then sees either
// the verified post-stream state or an already-demoted aborted one — never
// a half-written region).
func (s *System) ScrubOn(ri int) ScrubReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	rs := s.regions[ri]
	detected, module := rs.mgr.Scrub()
	return ScrubReport{Region: rs.area.R.Name, Detected: detected, Module: module, At: s.K.Now()}
}

// InjectFaultOn flips one configuration bit inside the region's row band:
// frame indexes the region's span frames, word its band words, bit the bit
// within the word. The flip mutates configuration memory directly (an SEU,
// not a stream) and goes unnoticed until a scrub or rebind looks. A region
// the board does not have is an error, like a frame or word outside it.
func (s *System) InjectFaultOn(ri, frame, word int, bit uint) error {
	if ri < 0 || ri >= len(s.regions) {
		return fmt.Errorf("platform: fault targets region %d of %d", ri, len(s.regions))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.regions[ri].mgr.InjectFault(frame, word, bit)
}

// FaultSpaceOn reports the injectable coordinate space of the region —
// span frames by row-band words (of 32 bits each). Scenario generators
// draw fault coordinates uniformly inside it.
func (s *System) FaultSpaceOn(ri int) (frames, words int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.regions[ri].mgr.FaultSpace()
}
