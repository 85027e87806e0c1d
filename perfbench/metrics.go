package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one printed metric; BENCHMARK.json lists the same
// names, units and directions (TestNamesMatchBenchmarkJSON).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees, printed by every
// workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"goodput", "fraction", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics. A workload that does not
// exercise a layer prints 0 for that layer's counts.
var perLayer = []metricDef{
	{"sim.handoff_ns", "ns", "lower"},
	{"sim.self_frac", "fraction", "lower"},
	{"runtime.sched_frac", "fraction", "lower"},
	{"runtime.gc_frac", "fraction", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"htm.tx_access_ns", "ns", "lower"},
	{"htm.self_frac", "fraction", "lower"},
	{"htm.starts", "count", "lower"},
	{"htm.commit_frac", "fraction", "higher"},
	{"htm.aborts_conflict", "count", "lower"},
	{"htm.aborts_capacity", "count", "lower"},
	{"htm.aborts_lockheld", "count", "lower"},
	{"cache.access_ns", "ns", "lower"},
	{"cache.self_frac", "fraction", "lower"},
	{"cache.accesses", "count", "lower"},
	{"cache.remote_frac", "fraction", "lower"},
	{"cache.remote_invals", "count", "lower"},
	{"expt.busy_s", "s", "lower"},
	{"expt.idle_frac", "fraction", "lower"},
	{"workload.sim_ops", "count", "higher"},
	{"workload.host_us_per_sim_op", "us", "lower"},
	{"tle.attempts_per_op", "count", "lower"},
	{"tle.fallbacks", "count", "lower"},
	{"tle.commit_frac", "fraction", "higher"},
	{"tle.aborts", "count", "lower"},
	{"tle.self_frac", "fraction", "lower"},
	{"natle.self_frac", "fraction", "lower"},
	{"telemetry.self_frac", "fraction", "lower"},
	{"service.search_s", "s", "lower"},
	{"service.probes", "count", "lower"},
	{"service.host_ms_per_probe", "ms", "lower"},
	{"service.self_frac", "fraction", "lower"},
	{"service.shed_frac", "fraction", "lower"},
	{"service.avg_batch", "count", "higher"},
	{"service.max_queue", "count", "lower"},
	{"service.queue_p50_us", "us", "lower"},
	{"service.queue_p99_us", "us", "lower"},
	{"service.svc_p50_us", "us", "lower"},
	{"service.svc_p99_us", "us", "lower"},
	{"service.e2e_p50_us", "us", "lower"},
	{"service.e2e_p99_us", "us", "lower"},
	{"service.e2e_p999_us", "us", "lower"},
	{"service.drain_lag_ms", "ms", "lower"},
	{"service.schedule_s", "s", "lower"},
	{"simmap.self_frac", "fraction", "lower"},
	{"scheme.cs_p50_ns", "ns", "lower"},
	{"scheme.cs_p99_ns", "ns", "lower"},
	{"scheme.self_ns", "ns", "lower"},
	{"scheme.attempts_per_op", "count", "lower"},
	{"scheme.empty_cs_ns", "ns", "lower"},
	{"scheme.mutex_empty_cs_ns", "ns", "lower"},
	{"arena.load_ns", "ns", "lower"},
	{"arena.self_frac", "fraction", "lower"},
	{"native.load_ns", "ns", "lower"},
	{"native.tx_load_ns", "ns", "lower"},
	{"native.self_frac", "fraction", "lower"},
	{"native.world_alloc_s", "s", "lower"},
	{"sets.op_ns", "ns", "lower"},
	{"sets.self_frac", "fraction", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
}

// setupReps is how many times the sim workloads time their set-up per
// unit: it is short next to the unit, so one sample per unit is too few
// for a steady median.
const setupReps = 5

// phase is what one workload produced over one measured interval.
type phase struct {
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
	// cost is the workload's headline end-to-end value turned into a
	// cost (lower is better), for trace.overhead_frac.
	cost float64
}

func newPhase() *phase {
	return &phase{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records n failed units with a reason on standard error, so a
// gate failure is visible without changing any timing.
func (p *phase) fail(n int64, format string, args ...any) {
	p.failed += n
	logf("GATE FAILED: "+format, args...)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// settle runs before each unit of work, outside every timed interval:
// it collects the previous unit's garbage, returns the freed pages to
// the OS and restarts the peak-RSS counter, so the unit's timing and
// memory peak are its own.
func settle() {
	unprofiled(debug.FreeOSMemory)
	resetPeakRSS()
}

// resetPeakRSS restarts the kernel's peak-RSS counter (VmHWM). Where it
// cannot (not Linux), peakRSSMB reads the whole process's peak.
func resetPeakRSS() {
	if f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0); err == nil {
		_, _ = f.WriteString("5") // 5 resets VmHWM; failure leaves the process-wide peak
		f.Close()
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB. Where
// /proc is absent it falls back to the Go runtime's reserved memory.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// allocMB returns the bytes allocated so far, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
