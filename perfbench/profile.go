package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profileSample is one CPU profile sample: its call stack, leaf first,
// with inlined frames expanded, and the CPU time it stands for.
type profileSample struct {
	stack []string
	nanos int64
}

// parseProfile decodes a gzipped pprof CPU profile as runtime/pprof
// writes it. It reads only the fields the layer breakdown needs:
// samples, locations, functions and the string table.
func parseProfile(data []byte) ([]profileSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUvarints(s.locs, wire, v, b)
				case 2:
					for _, u := range appendUvarints(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
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
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]profileSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profileSample{nanos: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= 0 && idx < int64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message. For
// varint fields fn gets the value in v; for length-delimited fields the
// payload in b. Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUvarints appends a repeated varint field, packed (wire type 2) or
// not.
func appendUvarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

const internalPrefix = "rasc.dev/rasc/internal/"

// benchPrefixes name this benchmark's own frames: package main in the
// binary, its import path in its test binary.
var benchPrefixes = []string{"main.", "rasc.dev/rasc/perfbench."}

// layerOf charges a sample to the innermost frame of a
// rasc.dev/rasc/internal/<layer> package; standard-library and runtime
// frames above it count for the layer that called them. The benchmark's
// own frames count as "perfbench"; a stack with neither (the GC's
// background workers, the scheduler) is "unattributed".
func layerOf(stack []string) string {
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
		for _, p := range benchPrefixes {
			if strings.HasPrefix(f, p) {
				return "perfbench"
			}
		}
	}
	return "unattributed"
}

// onStack reports whether any frame satisfies match.
func onStack(stack []string, match func(string) bool) bool {
	for _, f := range stack {
		if match(f) {
			return true
		}
	}
	return false
}

// isJSONFrame matches the encoding/json codec.
func isJSONFrame(f string) bool { return strings.HasPrefix(f, "encoding/json.") }

// gcFramePrefixes name the runtime's allocator and collector entry points.
var gcFramePrefixes = []string{
	"runtime.mallocgc", "runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.scanobject", "runtime.greyobject", "runtime.markroot",
	"runtime.sweepone", "runtime.wbBuf", "runtime.(*mheap)", "runtime.(*mcache)",
}

// isGCFrame matches allocation and garbage collection.
func isGCFrame(f string) bool {
	for _, p := range gcFramePrefixes {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// cpuBreakdown is a profile's CPU seconds by layer plus the two
// cross-cutting buckets, which overlap the layers.
type cpuBreakdown struct {
	byLayer    map[string]float64
	json, gc   float64
	totalNanos int64
}

func bucketProfile(samples []profileSample) cpuBreakdown {
	b := cpuBreakdown{byLayer: make(map[string]float64)}
	for _, s := range samples {
		sec := float64(s.nanos) / 1e9
		b.totalNanos += s.nanos
		b.byLayer[layerOf(s.stack)] += sec
		if onStack(s.stack, isJSONFrame) {
			b.json += sec
		}
		if onStack(s.stack, isGCFrame) {
			b.gc += sec
		}
	}
	return b
}
