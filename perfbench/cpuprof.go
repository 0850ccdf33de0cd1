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

// cpuModules are the program modules CPU samples are charged to. A sample
// goes to the innermost repro/internal/<module> frame on its stack; other
// internal modules and the benchmark's own frames go to "other"; stacks
// with neither go to "runtime" when the leaf is in the Go runtime and to
// "stdlib" otherwise.
var cpuModules = []string{
	"serve", "spec", "runner", "experiments", "core", "job", "cluster",
	"workload", "algs", "linalg", "mpi", "des", "simnet", "trace",
	"other", "stdlib", "runtime",
}

// cpuShares parses a gzipped pprof CPU profile and returns each module's
// share of the sampled CPU time.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	known := make(map[string]bool, len(cpuModules))
	for _, m := range cpuModules {
		known[m] = true
	}
	totals := make(map[string]float64, len(cpuModules))
	var sum float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		var names []string
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				names = append(names, p.strings[p.funcNames[fid]])
			}
		}
		totals[chargeModule(names, known)] += v
		sum += v
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		if sum > 0 {
			shares[m] = totals[m] / sum
		}
	}
	return shares, nil
}

// chargeModule picks the module a stack (function names, leaf first) is
// charged to.
func chargeModule(names []string, known map[string]bool) string {
	for _, n := range names {
		if rest, ok := strings.CutPrefix(n, "repro/internal/"); ok {
			m := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				m = rest[:i]
			}
			if known[m] {
				return m
			}
			return "other"
		}
		if strings.HasPrefix(n, "main.") {
			return "other"
		}
	}
	if len(names) > 0 && strings.HasPrefix(names[0], "runtime.") {
		return "runtime"
	}
	return "stdlib"
}

// profile holds the parts of a pprof protobuf the CPU split needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location ID -> function IDs, innermost first
	funcNames map[uint64]int64    // function ID -> string-table index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

var errTruncated = errors.New("truncated protobuf")

// parseProfile decodes the profile.proto fields it needs: Profile.sample
// (2), location (4), function (5) and string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, v, data)
				case 2:
					var vals []uint64
					if err := appendUints(&vals, v, data); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d outside the string table", idx)
		}
	}
	return p, nil
}

// appendUints appends a repeated varint field that may be packed (data
// set) or unpacked (v set).
func appendUints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited payload
// (data is nil for non-length-delimited fields).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wt {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)] // non-nil even when empty
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wt)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
