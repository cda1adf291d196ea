package perf

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuPackages are the packages host.cpu_share reports; every other
// sample folds into "other".
var cpuPackages = []string{
	"kernel", "spec", "verify", "mck", "pt", "mem", "pm", "hw",
	"apps", "cluster", "netproto", "shmring", "obs", "runtime",
}

// cpuShares folds a runtime/pprof CPU profile's flat samples (each
// sample charged to its innermost frame) by package and returns each
// reported package's share of all samples. An empty profile yields
// all-zero shares.
func cpuShares(profile []byte) (map[string]float64, error) {
	shares := map[string]float64{"other": 0}
	for _, p := range cpuPackages {
		shares[p] = 0
	}
	leaves, err := profileLeaves(profile)
	if err != nil {
		return shares, fmt.Errorf("perf: cpu profile: %w", err)
	}
	var total float64
	for fn, n := range leaves {
		shares[cpuPackage(fn)] += float64(n)
		total += float64(n)
	}
	if total > 0 {
		for p := range shares {
			shares[p] /= total
		}
	}
	return shares, nil
}

// cpuPackage maps a symbol such as
// "atmosphere/internal/obs/contend.(*Observatory).LockAcquire" to the
// package it is reported under ("obs").
func cpuPackage(fn string) string {
	path := fn
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		if j := strings.IndexByte(path[i:], '.'); j >= 0 {
			path = path[:i+j]
		}
	} else if j := strings.IndexByte(path, '.'); j >= 0 {
		path = path[:j]
	}
	if path == "runtime" || strings.HasPrefix(path, "runtime/") || strings.HasPrefix(path, "internal/runtime/") {
		return "runtime"
	}
	// In a -race build the detector's C runtime and its entry stubs are
	// runtime too.
	if strings.HasPrefix(fn, "__tsan") || strings.HasPrefix(fn, "racecall") {
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(path, "atmosphere/internal/"); ok {
		top, _, _ := strings.Cut(rest, "/")
		for _, p := range cpuPackages {
			if p == top {
				return p
			}
		}
	}
	return "other"
}

// profileLeaves decodes a gzipped profile.proto and sums each sample's
// first value (the sample count) by the function of its innermost
// frame. Only the handful of fields that needs are read.
func profileLeaves(profile []byte) (map[string]int64, error) {
	out := map[string]int64{}
	if len(profile) == 0 {
		return out, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		loc   uint64
		count int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{} // location id -> innermost function id
	funcName := map[uint64]int64{} // function id -> string table index
	var strtab []string
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			firstLoc, firstVal := true, true
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, innermost first
					if firstLoc {
						ids, err := varints(v, b)
						if err != nil || len(ids) == 0 {
							return err
						}
						s.loc, firstLoc = ids[0], false
					}
				case 2: // value; the first is the sample count
					if firstVal {
						vals, err := varints(v, b)
						if err != nil || len(vals) == 0 {
							return err
						}
						s.count, firstVal = int64(vals[0]), false
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if fn == 0 {
						return eachField(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		name := "?"
		if i, ok := funcName[locFunc[s.loc]]; ok && i >= 0 && int(i) < len(strtab) {
			name = strtab[i]
		}
		out[name] += s.count
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num := int(key >> 3)
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints reads a repeated varint field in either encoding: one
// unpacked value v (b nil) or a packed run b.
func varints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
