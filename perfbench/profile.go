package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
)

// cpuProfile is the part of a pprof CPU profile the layer attribution
// needs: each sample's stack as function names, leaf first, with inlined
// frames expanded.
type cpuProfile struct {
	stacks [][]string
	counts []int64
}

// parseProfile decodes the gzipped protobuf that runtime/pprof writes. Only
// samples, locations, functions and the string table are read.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			first := true
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					if first {
						if vals := pbUints(nil, v, b); len(vals) > 0 {
							s.count, first = int64(vals[0]), false
						}
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, s.count)
	}
	return p, nil
}

var errProto = errors.New("perfbench: malformed profile")

// pbFields walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = pbVarint(b); n == 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, body); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field, packed (b set) or not.
func pbUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerOf maps a function name to the layer its package belongs to, or ""
// for code outside this module. The benchmark itself (package main, and
// the repo's bench package it borrows percentiles from) is the "bench"
// layer.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	const mod = "hamoffload/"
	if !strings.HasPrefix(fn, mod) {
		return ""
	}
	pkg := fn[len(mod):]
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i] // type arguments may hold other import paths
	}
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch pkg {
	case "internal/simtime":
		return "simtime"
	case "machine", "internal/topology", "internal/units":
		return "machine"
	case "internal/core", "offload":
		return "core"
	case "internal/ham":
		return "ham"
	case "internal/backend/dmab":
		return "dmab"
	case "internal/backend/veob":
		return "veob"
	case "internal/backend/slots", "internal/backend/adapter":
		return "slots"
	case "internal/dma":
		return "dma"
	case "internal/pcie":
		return "pcie"
	case "internal/veos", "internal/veo", "internal/vecore":
		return "veos"
	case "internal/mem", "internal/hostmem", "internal/vemem":
		return "mem"
	case "internal/faults":
		return "faults"
	case "gateway":
		return "gateway"
	case "sched", "sched/health":
		return "sched"
	case "internal/telemetry":
		return "telemetry"
	case "internal/trace":
		return "trace"
	case "bench":
		return "bench"
	}
	return "other"
}

// layerSamples charges every sample to the innermost frame from this
// module, so runtime work (channel hand-off, memclr, memmove) lands on the
// function that triggered it. Samples with no module frame are background
// runtime work (GC, scheduler) and go to "runtime".
func (p *cpuProfile) layerSamples(into map[string]int64) {
	for i, stack := range p.stacks {
		layer := "runtime"
		for _, fn := range stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		into[layer] += p.counts[i]
	}
}
