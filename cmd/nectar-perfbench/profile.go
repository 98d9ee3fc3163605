package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"path"
	"strings"
)

// Self host time per layer. Each traced repetition's runtime/pprof CPU
// profile is folded by layer, and the parent pools the folds of all
// traced repetitions before taking shares (one repetition of cab-rpc
// yields only some 70 samples). Each sample is charged to the nearest frame,
// counting from the leaf, that belongs to a nectar package, so runtime
// work — channel handoff, mallocgc, map access — lands on the simulator
// code that asked for it. Samples with no nectar frame at all (background
// GC, the scheduler) are charged to "runtime". The decoder below reads
// just the parts of the profile.proto encoding this needs.

// profileLayers is the fixed set of layers a profile is folded into.
var profileLayers = []string{
	"sim", "pdes", "threads", "mailbox", "syncs", "hostif", "exec",
	"vme", "host", "mem", "cab", "fiber", "hub", "datalink", "ip", "tcp",
	"rmp", "rrp", "datagram", "wire", "obs", "pool", "fabric", "cluster",
	"nectarine", "bench", "runtime", "other",
}

// layerOf maps a function (by name and source file) to its layer, or ""
// when the function is not part of the simulator or the benchmark.
func layerOf(fn, file string) string {
	pkg := funcPackage(fn)
	switch pkg {
	case "main":
		return "bench"
	case "nectar":
		return "cluster"
	}
	if !strings.HasPrefix(pkg, "nectar/") {
		return ""
	}
	base := path.Base(file)
	switch rel := strings.TrimPrefix(pkg, "nectar/internal/"); rel {
	case "sim":
		if base == "pdes.go" {
			return "pdes"
		}
		return "sim"
	case "rt/threads", "rt/mailbox", "rt/syncs", "rt/hostif", "rt/exec",
		"hw/vme", "hw/host", "hw/mem", "hw/cab", "hw/fiber", "hw/hub",
		"proto/datalink", "proto/ip", "proto/tcp", "proto/wire":
		return path.Base(rel)
	case "proto/nectar":
		switch base {
		case "rmp.go":
			return "rmp"
		case "rrp.go":
			return "rrp"
		}
		return "datagram"
	case "obs", "pool", "fabric", "nectarine":
		return rel
	}
	return "other"
}

// funcPackage extracts the import path from a symbol name such as
// "nectar/internal/sim.(*Kernel).step".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// foldProfile returns the CPU time, in ns, the profile charges to each
// layer of profileLayers.
func foldProfile(raw []byte) (map[string]float64, error) {
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	layerOfLoc := map[uint64]string{}
	for id, lines := range p.locLines {
		for _, fid := range lines {
			f := p.funcs[fid]
			if l := layerOf(p.str(f.name), p.str(f.file)); l != "" {
				layerOfLoc[id] = l
				break
			}
		}
	}
	byLayer := map[string]float64{}
	for _, l := range profileLayers {
		byLayer[l] = 0
	}
	for _, s := range p.samples {
		layer := "runtime"
		for _, loc := range s.locs {
			if l, ok := layerOfLoc[loc]; ok {
				layer = l
				break
			}
		}
		byLayer[layer] += s.value
	}
	return byLayer, nil
}

type profFunc struct{ name, file int64 }

type profSample struct {
	locs  []uint64 // leaf first
	value float64  // CPU nanoseconds (or the sample count if absent)
}

type profile struct {
	strs     []string
	funcs    map[uint64]profFunc
	locLines map[uint64][]uint64 // location -> function IDs, innermost first
	samples  []profSample
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

func decodeProfile(raw []byte) (*profile, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{funcs: map[uint64]profFunc{}, locLines: map[uint64][]uint64{}}
	err := eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			var vals []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					vals = appendVarints(vals, wire, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			switch {
			case len(vals) >= 2:
				s.value = float64(vals[1])
			case len(vals) == 1:
				s.value = float64(vals[0])
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fids []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locLines[id] = fids
		case 5: // function
			var id uint64
			var f profFunc
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					f.name = int64(v)
				case 4:
					f.file = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcs[id] = f
		case 6: // string table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
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
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return errors.New("profile: unsupported protobuf wire type")
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding:
// one unpacked value, or a packed run.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
