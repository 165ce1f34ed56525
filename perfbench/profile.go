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

// CPU profiles are attributed by self time: each sample is charged to
// the package of its innermost frame (the first line of its first
// location), so the shares partition the samples and sum to 1.

// modulePrefix is the import-path prefix of the program's own packages.
const modulePrefix = "github.com/ooc-hpf/passion/internal/"

// cpuBuckets are the packages the profile is split into; anything else
// falls into "other".
var cpuBuckets = []string{
	"hpf", "compiler", "plan", "bytecode", "exec", "mp", "oocarray", "iosim",
	"collio", "dist", "parity", "trace", "serve", "bufpool",
	"encoding-json", "net-http", "runtime", "other",
}

// checkLabel marks, through pprof labels, the CPU the benchmark spends
// checking outputs; profileShares leaves those samples out.
const checkLabel = "perfbench"

// bucketOf maps a fully qualified function name to its cpuBuckets entry.
func bucketOf(fn string) string {
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, modulePrefix), "/")
		for _, b := range cpuBuckets {
			if b == name {
				return b
			}
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "encoding/json":
		return "encoding-json"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/internal"):
		return "net-http"
	}
	return "other"
}

// profileShares reads a gzipped pprof CPU profile and returns each
// bucket's share of the CPU time of the samples not labeled
// checkLabel, and how many samples that is.
func profileShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	valueIdx := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			valueIdx = i
		}
	}
	totals := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		totals[b] = 0
	}
	var all float64
	samples := 0
	for _, s := range p.samples {
		if len(s.locs) == 0 || valueIdx < 0 || valueIdx >= len(s.values) || p.str(s.labelKey) == checkLabel {
			continue
		}
		bucket := "other"
		if loc, ok := p.locations[s.locs[0]]; ok && len(loc) > 0 {
			bucket = bucketOf(p.str(p.functions[loc[0]]))
		}
		v := float64(s.values[valueIdx])
		totals[bucket] += v
		all += v
		samples++
	}
	if all == 0 {
		return nil, 0, errors.New("profile: no CPU samples")
	}
	for b := range totals {
		totals[b] /= all
	}
	return totals, samples, nil
}

// profile is the part of the pprof protobuf the attribution reads.
type profile struct {
	strings     []string
	sampleTypes []int64             // string index of each value's type
	samples     []pSample           //
	locations   map[uint64][]uint64 // location id -> function id per line, innermost first
	functions   map[uint64]int64    // function id -> string index of its name
}

type pSample struct {
	locs     []uint64
	values   []int64
	labelKey int64 // string index of the first label's key, 0 if none
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := pbFields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			return pbFields(data, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s pSample
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					return pbRepeated(v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbRepeated(v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				case 3:
					if s.labelKey != 0 {
						return nil
					}
					return pbFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							s.labelKey = int64(v)
						}
						return nil
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return pbFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields, which pprof does not use, are skipped.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
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
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated feeds a repeated varint field to add, packed (data) or not
// (v).
func pbRepeated(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}
