package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The traced pass records a runtime/pprof CPU profile. It is read here
// with the standard library alone: gzip, then the few profile.proto
// fields a per-package split needs.

// profile is the decoded subset of a pprof Profile.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id → function ids, leaf first
	functions map[uint64]int64    // function id → name string index
	strings   []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // the first sample value: the sample count
}

// pbField is one decoded protobuf field.
type pbField struct {
	num  int
	wire int
	u    uint64
	b    []byte
}

func pbFields(buf []byte, visit func(pbField) error) error {
	for len(buf) > 0 {
		key, n := pbVarint(buf)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		buf = buf[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.u, n = pbVarint(buf)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("pprof: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := pbVarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("pprof: bad length")
			}
			f.b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("pprof: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", f.wire)
		}
		if err := visit(f); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(buf []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(buf) && i < 10; i++ {
		x |= uint64(buf[i]&0x7f) << (7 * i)
		if buf[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// pbUints appends a repeated integer field, packed or not.
func pbUints(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.u), nil
	}
	for b := f.b; len(b) > 0; {
		x, n := pbVarint(b)
		if n <= 0 {
			return nil, errors.New("pprof: bad packed varint")
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = pbFields(raw, func(f pbField) error {
		switch f.num {
		case 2: // sample
			var s profSample
			var vals []uint64
			err := pbFields(f.b, func(g pbField) error {
				var err error
				switch g.num {
				case 1:
					s.locs, err = pbUints(s.locs, g)
				case 2:
					vals, err = pbUints(vals, g)
				}
				return err
			})
			if len(vals) > 0 {
				s.value = int64(vals[0])
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.u
				case 4: // line: its function_id is field 1
					return pbFields(g.b, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.u)
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
			err := pbFields(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.u
				case 2:
					name = int64(g.u)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(f.b))
		}
		return nil
	})
	return p, err
}

// stack returns a sample's function names, leaf first, inlined frames
// expanded.
func (p *profile) stack(s profSample) []string {
	var out []string
	for _, loc := range s.locs {
		for _, fn := range p.locations[loc] {
			if i := p.functions[fn]; i >= 0 && int(i) < len(p.strings) {
				out = append(out, p.strings[i])
			}
		}
	}
	return out
}

// funcPackage returns the import path of a symbol such as
// "repro/internal/sim.(*WheelQueue).Pop", or the name itself for the
// runtime's assembly symbols, which carry no package.
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// isGC reports whether a stack is garbage-collector work: background
// marking, mark assists charged to allocating goroutines, or sweeping.
func isGC(stack []string) bool {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") || fn == "runtime.sweepone" || fn == "runtime.markroot" {
			return true
		}
	}
	return false
}

// cpuBuckets maps the reported shares to the packages they cover.
var cpuBuckets = []struct{ metric, pkg string }{
	{"cpu.sim", "repro/internal/sim"},
	{"cpu.grid", "repro/internal/grid"},
	{"cpu.rms", "repro/internal/rms"},
	{"cpu.fabric", "repro/internal/fabric"},
	{"cpu.sched", "repro/internal/sched"},
	{"cpu.obs", "repro/internal/obs"},
	{"cpu.controlplane", "repro/internal/controlplane"},
	{"cpu.json", "encoding/json"},
	{"cpu.fmt", "fmt"},
}

// cpuSplit reports each package's self share of the profile's samples.
// GC work is its own bucket. Otherwise a sample belongs to the package
// of its innermost frame outside the runtime, so allocation, map and
// copy helpers count toward the code that called them.
func cpuSplit(r *result, gz []byte) error {
	p, err := parseProfile(gz)
	if err != nil {
		return err
	}
	by := map[string]int64{}
	otherPkgs := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		total += s.value
		st := p.stack(s)
		if isGC(st) {
			by["cpu.gc"] += s.value
			continue
		}
		bucket, pkg := "cpu.other", "runtime"
		for _, fn := range st {
			pkg = funcPackage(fn)
			if pkg == fn || pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/") {
				pkg = "runtime"
				continue
			}
			for _, b := range cpuBuckets {
				if pkg == b.pkg {
					bucket = b.metric
				}
			}
			break
		}
		by[bucket] += s.value
		if bucket == "cpu.other" {
			otherPkgs[pkg] += s.value
		}
	}
	if total == 0 {
		return errors.New("pprof: CPU profile holds no samples")
	}
	for _, b := range cpuBuckets {
		r.set(b.metric, float64(by[b.metric])/float64(total), "ratio")
	}
	r.set("cpu.gc", float64(by["cpu.gc"])/float64(total), "ratio")
	r.set("cpu.other", float64(by["cpu.other"])/float64(total), "ratio")
	r.set("cpu.samples", float64(total), "count")
	pkgs := make([]string, 0, len(otherPkgs))
	for pkg := range otherPkgs {
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		a, b := otherPkgs[pkgs[i]], otherPkgs[pkgs[j]]
		return a > b || a == b && pkgs[i] < pkgs[j]
	})
	var top []string
	for i, pkg := range pkgs {
		if i == 8 {
			break
		}
		top = append(top, fmt.Sprintf("%s %.3f", pkg, float64(otherPkgs[pkg])/float64(total)))
	}
	r.note("cpu.other by package: %s", strings.Join(top, ", "))
	return nil
}
