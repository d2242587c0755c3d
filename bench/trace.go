package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// --- spans ---

// span is one interval the benchmark's own code records around a call into
// the simulator: the workload, a unit, and inside it a world construction,
// a RunFor window or an experiment.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced phases run.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNS = int64(time.Since(t.t0))
}

// rename names a span after the fact, once the call it wraps has said what
// it was.
func (t *tracer) rename(id int, name string) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].Name = name
}

// spanTotal sums, per span name, how many spans ran, their total duration
// and their self time: duration minus the part their child spans cover.
type spanTotal struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) totals() map[string]spanTotal {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := map[string]spanTotal{}
	for _, s := range t.spans {
		d := s.EndNS - s.StartNS
		tot := out[s.Name]
		tot.Count++
		tot.TotalMS += float64(d) / 1e6
		tot.SelfMS += float64(d-child[s.ID]) / 1e6
		out[s.Name] = tot
	}
	return out
}

// --- CPU profile attribution ---

// layers are the simulator's internal packages a CPU sample can be charged
// to, plus runtime (GC and allocation reached from no repository frame) and
// other (everything else, the benchmark's own code included).
var layers = []string{
	"sim", "phy", "dot11", "wep", "ethernet", "arp", "ipv4", "netfilter",
	"netsed", "tcp", "udp", "inet", "httpx", "vpn", "pkt", "faults", "core",
	"experiments", "detect", "attack", "runtime", "other",
}

// layerOf charges a stack, leaf frame first, to the nearest repository
// frame: math.archLog under phy.pathLossDB counts as phy. The benchmark's
// own frames (package main) count as other, and so do internal packages
// outside the layer list. A stack with no repository frame is runtime when
// its leaf is in the runtime (a GC worker, mallocgc) and other otherwise.
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			for _, l := range layers {
				if l == rest {
					return l
				}
			}
			return "other"
		}
		if strings.HasPrefix(f, "main.") {
			return "other"
		}
	}
	if len(frames) > 0 && strings.HasPrefix(frames[0], "runtime.") {
		return "runtime"
	}
	return "other"
}

// cpuByLayer decodes a gzipped pprof CPU profile and returns the sampled
// CPU nanoseconds charged to each layer, and their total.
func cpuByLayer(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct{ locs, values []uint64 }
	var (
		strs        []string
		sampleTypes []uint64 // string index of each value's type
		samples     []sample
		funcName    = map[uint64]uint64{}   // function ID -> string index
		locFuncs    = map[uint64][]uint64{} // location ID -> function IDs, innermost first
	)
	// Field numbers are those of profile.proto.
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendInts(s.locs, v, b)
				case 2:
					s.values = appendInts(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
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
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}

	cpu := -1
	for i, t := range sampleTypes {
		if t < uint64(len(strs)) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, 0, errors.New("cpu profile: no cpu sample type")
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	byLayer := map[string]int64{}
	var total int64
	var frames []string
	for _, s := range samples {
		if cpu >= len(s.values) {
			continue
		}
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				frames = append(frames, str(funcName[fn]))
			}
		}
		ns := int64(s.values[cpu])
		byLayer[layerOf(frames)] += ns
		total += ns
	}
	return byLayer, total, nil
}

// fields walks one protobuf message, calling fn with each field's number
// and either its integer value or, for length-delimited fields, its bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
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
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
			if data == nil {
				data = []byte{}
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendInts appends a repeated integer field, packed (data set) or not.
func appendInts(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst
}
