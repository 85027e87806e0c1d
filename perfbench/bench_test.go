package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"natle/internal/service"
	"natle/internal/telemetry"
	"natle/internal/vtime"
	"natle/internal/workload"
)

// TestNamesMatchBenchmarkJSON checks that the workloads and metrics the
// benchmark prints are exactly those BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !equalJSON(names, declared) {
		t.Errorf("workloads %v, BENCHMARK.json %v", names, declared)
	}
	if !equalJSON(endToEnd, spec.EndToEnd) {
		t.Errorf("end-to-end metrics %+v, BENCHMARK.json %+v", endToEnd, spec.EndToEnd)
	}
	if !equalJSON(perLayer, spec.PerLayer) {
		t.Errorf("per-layer metrics %+v, BENCHMARK.json %+v", perLayer, spec.PerLayer)
	}
}

func equalJSON(a, b any) bool {
	x, _ := json.Marshal(a)
	y, _ := json.Marshal(b)
	return bytes.Equal(x, y)
}

// TestEmitPrintsEveryMetric checks the result line carries exactly the
// declared metrics, zero-filled where a workload sets none.
func TestEmitPrintsEveryMetric(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		values := map[string]float64{defs[0].Name: 2.5}
		var buf bytes.Buffer
		if err := emit(&buf, &phase{attempted: 3}, values, defs); err != nil {
			t.Fatal(err)
		}
		var res result
		if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted != 3 || len(res.Metrics) != len(defs) {
			t.Fatalf("result %+v", res)
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("metric %s: %+v", d.Name, m)
			}
		}
		if res.Metrics[defs[0].Name].Value != 2.5 {
			t.Errorf("value lost: %+v", res.Metrics[defs[0].Name])
		}
	}
}

// TestSimSetsGate runs the sweep twice in process: the simulated
// outputs must be identical and match the recorded counters, and the
// gate must reject a flipped counter, broken conservation and a broken
// paper shape.
func TestSimSetsGate(t *testing.T) {
	want, err := expectedSimSets(1)
	if err != nil || want == nil {
		t.Fatalf("no recorded counters for seed 1: %v", err)
	}
	first, _ := simSetsSweep(1, nil, 0)
	second, _ := simSetsSweep(1, nil, 0)
	got := make([]simCounters, len(first))
	for i := range first {
		got[i] = countersOf(first[i])
		if g2 := countersOf(second[i]); g2 != got[i] {
			t.Errorf("%s: repetitions differ: %+v vs %+v", simSetsTrials[i], got[i], g2)
		}
	}
	gate := func(rs []*workload.Result, got, want []simCounters) int64 {
		ph := newPhase()
		checkSimSets(ph, rs, got, want, got)
		return ph.failed
	}
	if n := gate(first, got, want); n != 0 {
		t.Fatalf("gate failed %d trials at this commit", n)
	}

	flipped := append([]simCounters(nil), want...)
	flipped[2].HTM.Aborts[1]++
	if n := gate(first, got, flipped); n != 1 {
		t.Errorf("flipped counter: %d failures, want 1", n)
	}

	broken := *first[0]
	broken.HTM.Starts += 1000
	rs := append([]*workload.Result{&broken}, first[1:]...)
	if n := gate(rs, got, nil); n != 1 {
		t.Errorf("broken HTM conservation: %d failures, want 1", n)
	}

	slow := *first[3]
	slow.Ops = first[1].Ops / 100
	rs = append(append([]*workload.Result(nil), first[:3]...), &slow)
	if n := gate(rs, got, nil); n != int64(len(rs)) {
		t.Errorf("broken shape: %d failures, want %d", n, len(rs))
	}
}

// TestSimKVGate runs the committed SLO search twice; both must match
// BENCH_service.json, and a corrupted committed value must fail.
func TestSimKVGate(t *testing.T) {
	bench, err := readServiceBench("..")
	if err != nil {
		t.Fatal(err)
	}
	search := func() []service.SLOResult {
		var rs []service.SLOResult
		for _, s := range bench.Schemes {
			cfg, slo, err := bench.config(s.Scheme)
			if err != nil {
				t.Fatal(err)
			}
			rs = append(rs, service.SearchSLO(cfg, slo))
		}
		return rs
	}
	a, b := search(), search()
	if !equalJSON(a, b) {
		t.Errorf("repetitions differ:\n%+v\n%+v", a, b)
	}
	ph := newPhase()
	checkSimKV(ph, bench, a)
	if ph.failed != 0 {
		t.Fatalf("gate failed %d schemes at this commit", ph.failed)
	}
	bench.Schemes[1].LatencyUs += 1e-6
	ph = newPhase()
	checkSimKV(ph, bench, a)
	if ph.failed != 1 {
		t.Errorf("corrupted committed latency: %d failures, want 1", ph.failed)
	}
}

// TestNativeSetsGate runs one round and corrupts a recorded result, the
// expected contents and the scheme counters in turn.
func TestNativeSetsGate(t *testing.T) {
	in, out := nsRun(1, 0, nil, 0)
	if bad, err := checkNativeSets(in, out); err != nil {
		t.Fatalf("gate failed at this commit: %d ops: %v", bad, err)
	}

	// Flip the first own-key result of thread 1.
	for i, op := range in.ops[1] {
		if int(op>>2)%nsThreads == 1 {
			out.results[1][i] = !out.results[1][i]
			break
		}
	}
	if bad, err := checkNativeSets(in, out); err == nil || bad != 1 {
		t.Errorf("flipped result: %d failures (%v), want 1", bad, err)
	}
	in, out = nsRun(1, 0, nil, 0)

	// A replay that starts from different contents cannot match.
	in.prefill = in.prefill[1:]
	if _, err := checkNativeSets(in, out); err == nil {
		t.Error("wrong expected contents passed")
	}
	in, out = nsRun(1, 0, nil, 0)

	out.stats.TLE.Fallbacks++
	if bad, err := checkNativeSets(in, out); err == nil || bad != nsThreads*nsOps {
		t.Errorf("unbalanced commits: %d failures (%v)", bad, err)
	}
}

// TestNativeKVGate checks request conservation and the store checksum
// against the simulator on real calls, then on corrupted copies.
func TestNativeKVGate(t *testing.T) {
	cfg := nkvConfig(1)
	simCfg := cfg
	simCfg.Scheme = "tle"
	simRef := service.Run(simCfg)
	var first, clean *service.Result
	for i := 0; i < 50 && clean == nil; i++ {
		r := service.RunNative(nativeWorld(cfg.NativeMemWords(), 1), cfg)
		if err := checkNativeKV(r, simRef); err != nil {
			t.Fatalf("gate failed at this commit: %v", err)
		}
		if first == nil {
			first = r
		}
		if r.Shed == 0 {
			clean = r
		}
	}
	bad := *first
	bad.Completed--
	if checkNativeKV(&bad, simRef) == nil {
		t.Error("admitted != completed + deadline-shed passed")
	}
	bad = *first
	bad.Arrivals++
	if checkNativeKV(&bad, simRef) == nil {
		t.Error("arrivals != admitted + shed passed")
	}
	if clean == nil {
		t.Skip("every call shed requests; the store checksum was not exercised")
	}
	bad = *clean
	bad.StoreCheck ^= 1
	if checkNativeKV(&bad, simRef) == nil {
		t.Error("wrong store checksum passed")
	}
}

func TestWithin(t *testing.T) {
	var h telemetry.Histogram
	for _, d := range []vtime.Duration{vtime.Microsecond, 10 * vtime.Microsecond, 2 * vtime.Millisecond, 5 * vtime.Millisecond} {
		h.Observe(d)
	}
	if got := within(h.Snapshot(), vtime.Millisecond); got != 2 {
		t.Errorf("within 1ms = %v, want 2", got)
	}
	if got := within(h.Snapshot(), vtime.Second); got != 4 {
		t.Errorf("within 1h = %v, want 4", got)
	}
}

// TestProfileShares decodes a real CPU profile of a busy loop in this
// test: the loop's frames must be found and the shares must sum to 1.
func TestProfileShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		for i := 0; i < 1e5; i++ {
			sink += uint64(i) * sink
		}
	}
	pprof.StopCPUProfile()
	raw, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(raw)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := decodeProfile(b)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range prof.samples {
		for _, loc := range s.locs {
			for _, fn := range prof.locFuncs[loc] {
				found = found || strings.HasSuffix(fn, ".TestProfileShares")
			}
		}
	}
	if !found {
		t.Errorf("no sample of TestProfileShares among %d samples", len(prof.samples))
	}
	shares, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range shares {
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v: %v", total, shares)
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"natle/internal/htm.(*System).Try":                  "htm",
		"natle/internal/sets.avlInsert[go.shape.struct {}]": "sets",
		"natle/internal/natle.(*Lock).Acquire":              "natle",
		"internal/runtime/atomic.(*Uint32).Load":            "runtime",
		"sync/atomic.(*Uint64).Load":                        "atomic",
		"main.nsRun.func2":                                  "main",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if got := bucketOf([]string{"runtime.futex", "runtime.chanrecv", "natle/internal/sim.(*Ctx).wait"}); got != "runtime.sched" {
		t.Errorf("handoff bucket %q", got)
	}
	if got := bucketOf([]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}); got != "runtime.gc" {
		t.Errorf("gc bucket %q", got)
	}
}
