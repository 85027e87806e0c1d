package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public call. Parent is the ID of the span that caused it (0 for a
// root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs share the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNs: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string, fp fingerprint) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	buf, err := json.Marshal(struct {
		Host  fingerprint `json:"host"`
		Spans []span      `json:"spans"`
	}{fp, t.spans})
	if err != nil {
		return fmt.Errorf("marshal spans: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// cpuProfile is a running runtime/pprof CPU profile held in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile, writes it to path for `go tool pprof`, and
// returns the share of samples per bucket (see bucketOf).
func (p *cpuProfile) stop(path string) (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("profile dir: %w", err)
	}
	if err := os.WriteFile(path, p.buf.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("write profile: %w", err)
	}
	return profileShares(p.buf.Bytes())
}

// harnessLabel marks the benchmark's own work — input generation,
// world allocation, settling, checks and span reductions — so the
// profile buckets cover only the calls being measured.
var harnessLabel = [2]string{"perfbench", "harness"}

// unprofiled runs f under harnessLabel.
func unprofiled(f func()) {
	pprof.Do(context.Background(), pprof.Labels(harnessLabel[0], harnessLabel[1]), func(context.Context) { f() })
}

// profileShares decodes a gzipped pprof profile and attributes each
// sample outside the harness to one bucket: "runtime.gc" when a GC worker or assist is on
// the stack, "runtime.sched" when the leaf is runtime code under a
// channel, select, park, futex or scheduler frame, otherwise the leaf
// function's package ("htm", "sim", "runtime", ...).
func profileShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range prof.samples {
		if s.harness {
			continue
		}
		var frames []string // leaf first
		for _, loc := range s.locs {
			frames = append(frames, prof.locFuncs[loc]...)
		}
		if len(frames) == 0 {
			continue
		}
		shares[bucketOf(frames)] += float64(s.count)
		total += float64(s.count)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
		"runtime.markroot", "runtime.gcDrain",
	}
	schedFrames = []string{
		"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.gopark",
		"runtime.park_m", "runtime.schedule", "runtime.findRunnable", "runtime.futex",
		"runtime.Gosched", "runtime.gosched", "runtime.goready", "runtime.ready",
		"runtime.notesleep", "runtime.notewakeup", "runtime.wakep", "runtime.startm",
		"runtime.stopm", "runtime.mcall", "runtime.goexit0", "runtime.closechan",
		"runtime.usleep", "runtime.osyield",
	}
)

// bucketOf classifies one sample's stack (leaf first).
func bucketOf(frames []string) string {
	if anyPrefix(frames, gcFrames) {
		return "runtime.gc"
	}
	leaf := pkgOf(frames[0])
	if leaf == "runtime" && anyPrefix(frames, schedFrames) {
		return "runtime.sched"
	}
	return leaf
}

// anyPrefix reports whether any frame starts with any of the prefixes.
func anyPrefix(frames, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// pkgOf returns the short package name of a symbol such as
// "natle/internal/htm.(*System).Try" ("htm") or
// "internal/runtime/atomic.Load" ("runtime").
func pkgOf(fn string) string {
	path := fn
	if i := strings.Index(path, "["); i >= 0 {
		path = path[:i]
	}
	dir := ""
	if i := strings.LastIndex(path, "/"); i >= 0 {
		dir, path = path[:i], path[i+1:]
	}
	if i := strings.Index(path, "."); i >= 0 {
		path = path[:i]
	}
	if dir == "internal/runtime" || strings.HasPrefix(dir, "internal/runtime/") {
		return "runtime"
	}
	return path
}

// profile is the part of a pprof profile the bucketing needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location ID -> function names, innermost first
}

type sample struct {
	locs    []uint64
	count   int64
	labels  [][2]uint64 // (key, value) string-table indices
	harness bool        // labelled harnessLabel
}

// decodeProfile parses the protobuf encoding of a pprof Profile
// (github.com/google/pprof/proto/profile.proto): samples (field 2),
// locations (4), functions (5) and the string table (6).
func decodeProfile(b []byte) (*profile, error) {
	var strs []string
	funcName := map[uint64]int64{}
	locFn := map[uint64][]uint64{}
	p := &profile{locFuncs: map[uint64][]string{}}
	err := protoFields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []uint64
			err := protoFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					ids, err := protoVarints(v, data)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					xs, err := protoVarints(v, data)
					vals = append(vals, xs...)
					return err
				case 3:
					var kv [2]uint64
					err := protoFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 || num == 2 {
							kv[num-1] = v
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := protoFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return protoFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFn[id] = fns
		case 5:
			var id uint64
			var name int64
			err := protoFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for i := range p.samples {
		for _, kv := range p.samples[i].labels {
			if str(kv[0]) == harnessLabel[0] && str(kv[1]) == harnessLabel[1] {
				p.samples[i].harness = true
			}
		}
	}
	for loc, fns := range locFn {
		for _, f := range fns {
			if i := funcName[f]; i >= 0 && int(i) < len(strs) {
				p.locFuncs[loc] = append(p.locFuncs[loc], strs[i])
			}
		}
	}
	return p, nil
}

var errProto = errors.New("malformed protobuf")

// protoFields calls fn for each field of a protobuf message: v holds
// varint and fixed-width values, data the bytes of length-delimited
// fields.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// protoVarints decodes a repeated varint field that arrived either
// unpacked (one value in v) or packed (data).
func protoVarints(v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		data = data[n:]
	}
	return out, nil
}
