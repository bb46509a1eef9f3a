package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The standard library
// writes it but does not read it back, so the few fields the layer
// bucketing needs are decoded here by hand.

// sample is one profile sample: its stack as function names, innermost
// first (inlined frames expanded), and its CPU time.
type sample struct {
	stack []string
	cpuNs int64
}

// profile.proto field numbers.
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6
	fValueTypeType      = 1
	fSampleLocationID   = 1
	fSampleValue        = 2
	fLocationID         = 1
	fLocationLine       = 4
	fLineFunctionID     = 1
	fFunctionID         = 1
	fFunctionName       = 2
)

// pbField is one decoded protobuf field: a varint, or the bytes of a
// length-delimited field.
type pbField struct {
	num    int
	varint uint64
	data   []byte
	isLen  bool
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return nil, errors.New("profile: bad varint")
			}
			f.varint, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("profile: bad length")
			}
			f.data, f.isLen, b = b[n:n+int(l)], true, b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// varints returns the values of a repeated varint field occurrence, which
// the encoder writes either packed (length-delimited) or one per field.
func (f pbField) varints() ([]uint64, error) {
	if !f.isLen {
		return []uint64{f.varint}, nil
	}
	var out []uint64
	for b := f.data; len(b) > 0; {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errors.New("profile: bad packed varint")
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}

// parseProfile decodes a gzipped CPU profile into samples carrying their
// CPU nanoseconds (the sample type named "cpu").
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	var typeIdx []int64 // string index of each sample type's name
	var rawSamples, rawLocs, rawFuncs [][]byte
	for _, f := range fields {
		switch f.num {
		case fProfileStringTable:
			strs = append(strs, string(f.data))
		case fProfileSampleType:
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var name int64
			for _, s := range sub {
				if s.num == fValueTypeType {
					name = int64(s.varint)
				}
			}
			typeIdx = append(typeIdx, name)
		case fProfileSample:
			rawSamples = append(rawSamples, f.data)
		case fProfileLocation:
			rawLocs = append(rawLocs, f.data)
		case fProfileFunction:
			rawFuncs = append(rawFuncs, f.data)
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, s := range typeIdx {
		if str(uint64(s)) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	funcs := make(map[uint64]string)
	for _, b := range rawFuncs {
		sub, err := pbFields(b)
		if err != nil {
			return nil, err
		}
		var id, name uint64
		for _, s := range sub {
			switch s.num {
			case fFunctionID:
				id = s.varint
			case fFunctionName:
				name = s.varint
			}
		}
		funcs[id] = str(name)
	}
	locs := make(map[uint64][]string) // location -> frames, innermost first
	for _, b := range rawLocs {
		sub, err := pbFields(b)
		if err != nil {
			return nil, err
		}
		var id uint64
		var frames []string
		for _, s := range sub {
			switch s.num {
			case fLocationID:
				id = s.varint
			case fLocationLine:
				line, err := pbFields(s.data)
				if err != nil {
					return nil, err
				}
				for _, l := range line {
					if l.num == fLineFunctionID {
						frames = append(frames, funcs[l.varint])
					}
				}
			}
		}
		locs[id] = frames
	}
	out := make([]sample, 0, len(rawSamples))
	for _, b := range rawSamples {
		sub, err := pbFields(b)
		if err != nil {
			return nil, err
		}
		var ids, vals []uint64
		for _, s := range sub {
			vs, err := s.varints()
			if err != nil {
				return nil, err
			}
			switch s.num {
			case fSampleLocationID:
				ids = append(ids, vs...)
			case fSampleValue:
				vals = append(vals, vs...)
			}
		}
		if cpu >= len(vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, id := range ids {
			stack = append(stack, locs[id]...)
		}
		out = append(out, sample{stack: stack, cpuNs: int64(vals[cpu])})
	}
	return out, nil
}

// modulePrefix marks the repository's own packages in function names.
const modulePrefix = "share/internal/"

// isRuntime reports whether fn belongs to the Go runtime proper, including
// the runtime's internal packages (maps, atomics, memory moves).
func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/")
}

// layerOf returns the repository package a function belongs to, or "".
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	rest := fn[len(modulePrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// gcFrame reports whether fn is part of the garbage collector: background
// marking and sweeping, or assists charged to allocating goroutines.
func gcFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.sweepone", "runtime.markroot", "runtime.scanobject", "runtime.scanblock"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// bucketSelf attributes each sample's CPU time (flat, self time) to one
// bucket: "runtime" when the innermost frame is in the Go runtime,
// otherwise the package of the innermost share/internal frame, otherwise
// "harness" (this program and the non-runtime standard library it calls
// directly). Runtime time is further split into "runtime.malloc" (under
// mallocgc) and "runtime.gc" (collector work); these two are subsets of
// "runtime", not extra buckets. Values are seconds.
func bucketSelf(samples []sample) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range samples {
		sec := float64(s.cpuNs) / 1e9
		if len(s.stack) > 0 && isRuntime(s.stack[0]) {
			out["runtime"] += sec
			gc, malloc := false, false
			for _, fn := range s.stack {
				gc = gc || gcFrame(fn)
				malloc = malloc || fn == "runtime.mallocgc"
			}
			switch {
			case gc:
				out["runtime.gc"] += sec
			case malloc:
				out["runtime.malloc"] += sec
			}
			continue
		}
		bucket := "harness"
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				bucket = l
				break
			}
		}
		out[bucket] += sec
	}
	return out
}
