package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/bench/gate"
)

// bySeed holds one (workload, metric)'s values on one side, by seed.
type bySeed map[int64][]float64

// compare reads -json run files, grouped into two sides by directory (the
// first directory named is the base), and prints per (workload, metric)
// each side's median and quartiles and a verdict. Every run must have
// driven for the same host seconds, or host rates would not compare.
func compare(w io.Writer, files []string) error {
	var dirs []string
	sides := map[string]map[string]map[string]bySeed{} // dir -> workload -> metric -> values
	seconds := math.NaN()
	for _, f := range files {
		dir := filepath.Dir(f)
		if _, ok := sides[dir]; !ok {
			dirs = append(dirs, dir)
			sides[dir] = map[string]map[string]bySeed{}
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var recs []record
		if err := json.Unmarshal(data, &recs); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range recs {
			if math.IsNaN(seconds) {
				seconds = r.Seconds
			}
			if r.Seconds != seconds {
				return fmt.Errorf("%s: %s ran %g s drives, other runs %g s; compare runs of one length", f, r.Workload, r.Seconds, seconds)
			}
			side := sides[dir]
			if side[r.Workload] == nil {
				side[r.Workload] = map[string]bySeed{}
			}
			for name, v := range r.Metrics {
				if side[r.Workload][name] == nil {
					side[r.Workload][name] = bySeed{}
				}
				side[r.Workload][name][r.Seed] = append(side[r.Workload][name][r.Seed], v.Value)
			}
		}
	}
	if len(dirs) != 2 {
		return fmt.Errorf("-compare wants run files from exactly two directories (base, head), got %d", len(dirs))
	}
	base, head := sides[dirs[0]], sides[dirs[1]]
	fmt.Fprintf(w, "base %s, head %s, %g s drives\n", dirs[0], dirs[1], seconds)
	fmt.Fprintf(w, "%-16s %-30s %-38s %-38s %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "verdict")
	for _, wl := range workloads {
		for _, list := range allDefs {
			for _, d := range list {
				b, h := base[wl.name][d.Name], head[wl.name][d.Name]
				if len(b) == 0 || len(h) == 0 {
					continue
				}
				fmt.Fprintf(w, "%-16s %-30s %-38s %-38s %s\n", wl.name, d.Name, summary(b.all()), summary(h.all()), verdict(d, b, h))
			}
		}
	}
	return nil
}

// all returns every value regardless of seed.
func (s bySeed) all() []float64 {
	var out []float64
	for _, xs := range s {
		out = append(out, xs...)
	}
	return out
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", median(xs), q1, q3, len(xs))
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// verdict compares head against base. An exact metric whose two sides ran
// the same seeds is compared seed by seed with no tolerance: improved or
// regressed if any seed moved and all moved one way, unresolved if they
// moved both ways, unchanged if none moved. Otherwise, under the metric's
// bound (zero for the metrics that have none):
//
//   - unresolved: either side's spread is wider than the bound, unless
//     every head run reads better (improved) or worse (regressed) than
//     every base run;
//   - regressed: the head median is worse than the base median by more
//     than the bound, by the gate's rule (absolute for a zero base);
//   - improved: the base median is worse than the head median by the same
//     rule;
//   - unchanged: otherwise.
func verdict(d metricDef, base, head bySeed) string {
	higher := d.Better == "higher"
	if d.Exact && sameSeeds(base, head) {
		var better, worse bool
		for seed, b := range base {
			bm, hm := median(b), median(head[seed])
			better = better || (higher && hm > bm) || (!higher && hm < bm)
			worse = worse || (higher && hm < bm) || (!higher && hm > bm)
		}
		switch {
		case better && worse:
			return "unresolved"
		case better:
			return "improved"
		case worse:
			return "regressed"
		}
		return "unchanged"
	}
	b, h := base.all(), head.all()
	if math.Max(spread(b), spread(h)) > d.Bound {
		switch {
		case allBetter(h, b, higher):
			return "improved"
		case allBetter(b, h, higher):
			return "regressed"
		}
		return "unresolved"
	}
	bm, hm := median(b), median(h)
	switch {
	case !within(d, bm, hm):
		return "regressed"
	case !within(d, hm, bm):
		return "improved"
	}
	return "unchanged"
}

// within reports whether fresh is no worse than base by more than the
// metric's bound, by the gate's rule.
func within(d metricDef, base, fresh float64) bool {
	if d.Better == "higher" {
		return gate.CheckHigherBetter(base, fresh, 100*d.Bound).Pass
	}
	eps := 0.0
	if d.Unit == "sim_ms" {
		eps = gate.ConfigMsZeroEps
	}
	return gate.Check(base, fresh, 100*d.Bound, eps).Pass
}

// sameSeeds reports whether both sides ran exactly the same seeds.
func sameSeeds(a, b bySeed) bool {
	if len(a) != len(b) {
		return false
	}
	for seed := range a {
		if _, ok := b[seed]; !ok {
			return false
		}
	}
	return true
}

// allBetter reports whether every value of a reads better than every
// value of b.
func allBetter(a, b []float64, higher bool) bool {
	if higher {
		return slices.Min(a) > slices.Max(b)
	}
	return slices.Max(a) < slices.Min(b)
}
