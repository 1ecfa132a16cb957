package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// sample is one CPU profile sample: its count and the function names of
// its frames, innermost first.
type sample struct {
	count  int64
	frames []string
}

// readProfile decodes the gzipped profile.proto that runtime/pprof writes,
// keeping only what layer attribution needs. The module has no
// dependencies, so the protobuf wire format is read by hand: Profile
// fields 2 (sample), 4 (location), 5 (function) and 6 (string table).
func readProfile(r io.Reader) ([]sample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		funcNames = map[uint64]int64{}    // function ID -> string table index
		strs      []string
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s rawSample
			first := true
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return varints(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					// The first value is the "samples" count.
					return varints(v, b, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]sample, len(samples))
	for i, s := range samples {
		out[i].count = s.count
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcNames[fn]; idx >= 0 && idx < int64(len(strs)) {
					out[i].frames = append(out[i].frames, strs[idx])
				}
			}
		}
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf message")

// fields walks one protobuf message, calling f with each field's number
// and either its varint value or its length-delimited bytes. Fixed-width
// fields are skipped.
func fields(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := f(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// varints handles a repeated varint field in either encoding: one value
// (payload nil) or a packed run.
func varints(v uint64, packed []byte, f func(uint64)) error {
	if packed == nil {
		f(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		f(x)
		packed = packed[n:]
	}
	return nil
}

// attribute assigns every sample to the innermost repro/internal/<layer>
// frame on its stack ("runtime" when it has none) and returns the sample
// counts per layer.
func attribute(samples []sample) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range samples {
		layer := "runtime"
		for _, fn := range s.frames {
			if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
				layer = rest[:strings.IndexAny(rest+".", "./")]
				break
			}
		}
		out[layer] += s.count
	}
	return out
}

// hostShares turns per-layer sample counts into the reported shares:
// layers outside hostLayers fold into "other".
func hostShares(counts map[string]int64, m metrics) {
	var total int64
	shares := make(map[string]int64)
	for layer, c := range counts {
		total += c
		if _, ok := metricByName("host_share." + layer); !ok {
			layer = "other"
		}
		shares[layer] += c
	}
	for _, l := range hostLayers {
		v := 0.0
		if total > 0 {
			v = float64(shares[l]) / float64(total)
		}
		m.set("host_share."+l, v)
	}
}
