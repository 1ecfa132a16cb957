package plan_test

import (
	"testing"

	"repro/internal/platform"
)

// goldenRow pins one pre-refactor stream size: a (from, to) differential,
// or a complete stream when to carries the "complete:" prefix.
type goldenRow struct {
	from, to      string
	bytes, frames int
}

// The golden tables below were captured from the single-region planner
// BEFORE the multi-region refactor (PR 4 behaviour) and must never drift:
// a single-region system's plans stay byte-identical through any floorplan
// generalization. The CI bench gate cross-checks the same property on the
// aggregate S3 rows.
var goldenSys32 = []goldenRow{
	{"", "complete:blend", 367684, 744},
	{"", "complete:brightness", 367684, 744},
	{"", "complete:fade", 367684, 744},
	{"", "complete:jenkins", 367684, 744},
	{"", "complete:passthrough", 367684, 744},
	{"", "complete:patternmatch", 367684, 744},
	{"", "blend", 33060, 66},
	{"", "brightness", 33060, 66},
	{"", "fade", 65532, 132},
	{"", "jenkins", 98004, 198},
	{"", "passthrough", 11412, 22},
	{"", "patternmatch", 119652, 242},
	{"blend", "brightness", 33060, 66},
	{"blend", "fade", 65532, 132},
	{"blend", "jenkins", 98004, 198},
	{"blend", "passthrough", 33060, 66},
	{"blend", "patternmatch", 119652, 242},
	{"brightness", "blend", 33060, 66},
	{"brightness", "fade", 65532, 132},
	{"brightness", "jenkins", 98004, 198},
	{"brightness", "passthrough", 33060, 66},
	{"brightness", "patternmatch", 119652, 242},
	{"fade", "blend", 65532, 132},
	{"fade", "brightness", 65532, 132},
	{"fade", "jenkins", 98004, 198},
	{"fade", "passthrough", 65532, 132},
	{"fade", "patternmatch", 119652, 242},
	{"jenkins", "blend", 98004, 198},
	{"jenkins", "brightness", 98004, 198},
	{"jenkins", "fade", 98004, 198},
	{"jenkins", "passthrough", 98004, 198},
	{"jenkins", "patternmatch", 119652, 242},
	{"passthrough", "blend", 33060, 66},
	{"passthrough", "brightness", 33060, 66},
	{"passthrough", "fade", 65532, 132},
	{"passthrough", "jenkins", 98004, 198},
	{"passthrough", "patternmatch", 119652, 242},
	{"patternmatch", "blend", 119652, 242},
	{"patternmatch", "brightness", 119652, 242},
	{"patternmatch", "fade", 119652, 242},
	{"patternmatch", "jenkins", 119652, 242},
	{"patternmatch", "passthrough", 119652, 242},
}

var goldenSys64 = []goldenRow{
	{"", "complete:blend", 1001416, 1024},
	{"", "complete:brightness", 1001416, 1024},
	{"", "complete:fade", 1001416, 1024},
	{"", "complete:jenkins", 1001416, 1024},
	{"", "complete:passthrough", 1001416, 1024},
	{"", "complete:patternmatch", 1001416, 1024},
	{"", "complete:sha1", 1001416, 1024},
	{"", "blend", 43836, 44},
	{"", "brightness", 22452, 22},
	{"", "fade", 65220, 66},
	{"", "jenkins", 86604, 88},
	{"", "passthrough", 22452, 22},
	{"", "patternmatch", 107988, 110},
	{"", "sha1", 321828, 330},
	{"blend", "brightness", 43836, 44},
	{"blend", "fade", 65220, 66},
	{"blend", "jenkins", 86604, 88},
	{"blend", "passthrough", 43836, 44},
	{"blend", "patternmatch", 107988, 110},
	{"blend", "sha1", 321828, 330},
	{"brightness", "blend", 43836, 44},
	{"brightness", "fade", 65220, 66},
	{"brightness", "jenkins", 86604, 88},
	{"brightness", "passthrough", 22452, 22},
	{"brightness", "patternmatch", 107988, 110},
	{"brightness", "sha1", 321828, 330},
	{"fade", "blend", 65220, 66},
	{"fade", "brightness", 65220, 66},
	{"fade", "jenkins", 86604, 88},
	{"fade", "passthrough", 65220, 66},
	{"fade", "patternmatch", 107988, 110},
	{"fade", "sha1", 321828, 330},
	{"jenkins", "blend", 86604, 88},
	{"jenkins", "brightness", 86604, 88},
	{"jenkins", "fade", 86604, 88},
	{"jenkins", "passthrough", 86604, 88},
	{"jenkins", "patternmatch", 107988, 110},
	{"jenkins", "sha1", 321828, 330},
	{"passthrough", "blend", 43836, 44},
	{"passthrough", "brightness", 22452, 22},
	{"passthrough", "fade", 65220, 66},
	{"passthrough", "jenkins", 86604, 88},
	{"passthrough", "patternmatch", 107988, 110},
	{"passthrough", "sha1", 321828, 330},
	{"patternmatch", "blend", 107988, 110},
	{"patternmatch", "brightness", 107988, 110},
	{"patternmatch", "fade", 107988, 110},
	{"patternmatch", "jenkins", 107988, 110},
	{"patternmatch", "passthrough", 107988, 110},
	{"patternmatch", "sha1", 321828, 330},
	{"sha1", "blend", 321828, 330},
	{"sha1", "brightness", 321828, 330},
	{"sha1", "fade", 321828, 330},
	{"sha1", "jenkins", 321828, 330},
	{"sha1", "passthrough", 321828, 330},
	{"sha1", "patternmatch", 321828, 330},
}

func checkGolden(t *testing.T, s *platform.System, rows []goldenRow) {
	t.Helper()
	for _, g := range rows {
		var bytes, frames int
		var err error
		if len(g.to) > 9 && g.to[:9] == "complete:" {
			bytes, frames, err = s.Mgr.CompleteSize(g.to[9:])
		} else {
			bytes, frames, err = s.Mgr.DifferentialSize(g.from, g.to)
		}
		if err != nil {
			t.Errorf("%s: %q -> %q: %v", s.Name, g.from, g.to, err)
			continue
		}
		if bytes != g.bytes || frames != g.frames {
			t.Errorf("%s: %q -> %q sized (%d B, %d frames), pre-refactor planner had (%d B, %d frames)",
				s.Name, g.from, g.to, bytes, frames, g.bytes, g.frames)
		}
	}
}

// TestSingleRegionPlannerGolden: every complete and differential stream of
// the paper's single-region systems is byte-identical to the pre-refactor
// planner's, on both the legacy constructors and the n=1 floorplan path.
func TestSingleRegionPlannerGolden(t *testing.T) {
	s32, err := platform.NewSys32()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, s32, goldenSys32)
	s64, err := platform.NewSys64()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, s64, goldenSys64)
	s64n, err := platform.NewSys64N(1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, s64n, goldenSys64)
}
