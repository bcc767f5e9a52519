package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is decoded here with a minimal reader of the pprof
// protobuf encoding (profile.proto), so the benchmark needs only the
// standard library. Only the fields the package attribution uses are read.

// hostBuckets are the host.* layers, in report order. Every profile sample
// lands in exactly one of them.
var hostBuckets = []string{
	"core", "crypto", "ledger", "contract", "types", "simnet", "consensus",
	"fabric", "scenario", "workload", "metrics", "trace", "other",
	"runtime_gc", "runtime_other",
}

const repoInternal = "github.com/bidl-framework/bidl/internal/"

// repoBucket maps a function in one of the repo's packages to its layer.
func repoBucket(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, repoInternal)
	if !ok {
		return "", false
	}
	top := rest
	if i := strings.IndexAny(top, "/."); i >= 0 {
		top = top[:i]
	}
	switch top {
	case "core", "crypto", "ledger", "contract", "types", "simnet", "consensus",
		"scenario", "workload", "metrics", "trace":
		return top, true
	case "baseline":
		return "fabric", true
	}
	return "other", true // chaos, attack, cost, ...
}

func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.sweepone"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// bucketOf attributes one sample, given its frames innermost first: to the
// innermost frame in a repo package, else to the garbage collector when a
// GC frame is on the stack, else to the rest of the runtime (scheduler,
// profiler, and the benchmark's own samplers).
func bucketOf(frames []string) string {
	for _, fn := range frames {
		if b, ok := repoBucket(fn); ok {
			return b
		}
	}
	for _, fn := range frames {
		if isGC(fn) {
			return "runtime_gc"
		}
	}
	return "runtime_other"
}

// cpuProfile is the part of a decoded profile the attribution needs.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	frames []string // innermost first, inlined frames expanded
	cpuNs  int64
}

// attribute sums CPU seconds per host bucket.
func (p *cpuProfile) attribute() (map[string]float64, float64) {
	out := make(map[string]float64, len(hostBuckets))
	var total float64
	for _, s := range p.samples {
		sec := float64(s.cpuNs) / 1e9
		out[bucketOf(s.frames)] += sec
		total += sec
	}
	return out, total
}

// parseCPUProfile decodes a gzip-compressed pprof CPU profile.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		sampleTypes [][2]int64 // (type, unit) string indices
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames   = map[uint64]int64{}    // function id → name string index
		strs        []string
	)
	err = forFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]int64
			err := forFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, t)
			return err
		case 2: // sample
			var s rawSample
			err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, b, func(x uint64) { s.vals = append(s.vals, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return forFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := forFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpuIdx := -1
	for i, t := range sampleTypes {
		if str(t[0]) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if cpuIdx >= len(s.vals) {
			continue
		}
		ps := profSample{cpuNs: s.vals[cpuIdx]}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				ps.frames = append(ps.frames, str(funcNames[fid]))
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// forFields walks the top-level fields of one protobuf message, passing the
// varint value (wire type 0) or the payload (wire type 2) of each.
func forFields(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either packed (wire type
// 2) or unpacked (wire type 0) form.
func appendVarints(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
