package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A reader for the one thing the bench needs from a runtime/pprof CPU
// profile — each sample's call stack as function names, with its count —
// so that go.mod needs no protobuf dependency. Field numbers are those of
// github.com/google/pprof/proto/profile.proto.

// profSample is one stack of a CPU profile, innermost frame first, inlined
// frames expanded.
type profSample struct {
	funcs []string
	count int64
}

var errBadProfile = errors.New("bench: malformed pprof profile")

// pbField is one decoded protobuf field: a varint (or fixed-width) value,
// or the bytes of a length-delimited one.
type pbField struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

// pbNext decodes the field at the head of b and returns the rest.
func pbNext(b []byte) (pbField, []byte, error) {
	key, b, err := pbVarint(b)
	if err != nil {
		return pbField{}, nil, err
	}
	f := pbField{num: int(key >> 3), wire: int(key & 7)}
	switch f.wire {
	case 0:
		f.value, b, err = pbVarint(b)
		return f, b, err
	case 1, 5:
		width := 8
		if f.wire == 5 {
			width = 4
		}
		if len(b) < width {
			return f, nil, errBadProfile
		}
		for i := width - 1; i >= 0; i-- {
			f.value = f.value<<8 | uint64(b[i])
		}
		return f, b[width:], nil
	case 2:
		var n uint64
		if n, b, err = pbVarint(b); err != nil {
			return f, nil, err
		}
		if n > uint64(len(b)) {
			return f, nil, errBadProfile
		}
		f.bytes = b[:n]
		return f, b[n:], nil
	}
	return f, nil, fmt.Errorf("%w: wire type %d", errBadProfile, f.wire)
}

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errBadProfile
}

// pbEach calls fn on every field of the message b.
func pbEach(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		f, rest, err := pbNext(b)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// pbUints reads a repeated integer field occurrence: packed or not.
func pbUints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire != 2 {
		return append(dst, f.value), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
		b = rest
	}
	return dst, nil
}

// parseProfile reads a (gzip-compressed, as runtime/pprof writes it, or
// raw) profile and returns its samples, counted by their first value —
// samples/count in a CPU profile.
func parseProfile(data []byte) ([]profSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("bench: reading profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("bench: reading profile: %w", err)
		}
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]uint64{}   // function id → string-table index
		strs      []string
	)
	err := pbEach(data, func(f pbField) error {
		switch f.num {
		case 2: // Sample: location_id = 1, value = 2
			var s rawSample
			var vals []uint64
			err := pbEach(f.bytes, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = pbUints(g, s.locs)
				case 2:
					vals, err = pbUints(g, vals)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			var id uint64
			var fns []uint64
			err := pbEach(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.value
				case 4:
					return pbEach(g.bytes, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.value)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			err := pbEach(f.bytes, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = g.value
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("%w: string index %d out of range", errBadProfile, idx)
				}
				ps.funcs = append(ps.funcs, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}
