// Command perfbench is the repository's benchmark: four workloads over
// the simulator and the native backend, each measured for a fixed time,
// each checked for correct outputs, printing one JSON result line.
//
//	perfbench --workload sim-sets --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace
// 1 it holds the per-layer metrics of a separate traced run, whose spans
// and CPU profile are written under .bench_build/perfbench-trace. See
// README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"natle/internal/native"
)

// workloadDef is one benchmark workload. run measures until the
// deadline; a nil tracer means tracing is off.
type workloadDef struct {
	Name   string
	Native bool // measures real goroutines, so needs >= 2 CPUs
	run    func(seed int64, tr *tracer, deadline time.Time) *phase
}

var workloads = []workloadDef{
	{"sim-sets", false, runSimSets},
	{"sim-kv", false, runSimKV},
	{"native-sets", true, runNativeSets},
	{"native-kv", true, runNativeKV},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// fingerprint identifies the host a result came from.
type fingerprint struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	Groups      int    `json:"native_groups"`
	GroupSource string `json:"native_group_source"`
	Comparable  bool   `json:"comparable"`
}

func hostFingerprint(native bool) fingerprint {
	w := nativeWorld(1<<10, 0)
	fp := fingerprint{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Groups:      w.Groups(),
		GroupSource: w.GroupSource(),
	}
	// A native number measured on one CPU says nothing about two.
	fp.Comparable = !native || (fp.NProc >= 2 && fp.GOMAXPROCS >= 2)
	return fp
}

func nativeWorld(words int, seed int64) *native.World {
	return native.NewWorld(native.Config{Words: words, Seed: seed})
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 15, "measured seconds")
		trace   = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
		record  = flag.Int64("record", 0, "print the sim-sets counters of seeds 1..n as expect_sim_sets.json and exit")
	)
	flag.Parse()
	if *record > 0 {
		if err := recordSimSets(*record); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

var errNotComparable = errors.New("native workloads need at least 2 CPUs; not comparable on this host")

// traceDir holds the traced run's spans and CPU profile.
const traceDir = ".bench_build/perfbench-trace"

func run(name string, seed int64, seconds float64, traced bool) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	fp := hostFingerprint(w.Native)
	fpLine, err := json.Marshal(map[string]fingerprint{"fingerprint": fp})
	if err != nil {
		return err
	}
	fmt.Println(string(fpLine))
	if !fp.Comparable {
		return errNotComparable
	}
	budget := time.Duration(seconds * float64(time.Second))

	var ph *phase
	if !traced {
		ph = w.run(seed, nil, time.Now().Add(budget))
		return emit(os.Stdout, ph, ph.e2e, endToEnd)
	}

	// Traced run: half the budget untraced as the overhead baseline,
	// half traced under a CPU profile, then the ladder.
	base := w.run(seed, nil, time.Now().Add(budget/2))
	tr := newTracer()
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	ph = w.run(seed, tr, time.Now().Add(budget/2))
	stem := filepath.Join(traceDir, fmt.Sprintf("%s-%d", name, seed))
	shares, err := prof.stop(stem + ".pprof")
	if err != nil {
		return err
	}
	for _, pkg := range []string{"sim", "htm", "cache", "tle", "natle", "telemetry", "service", "simmap", "arena", "native", "sets"} {
		ph.layer[pkg+".self_frac"] = shares[pkg]
	}
	ph.layer["runtime.sched_frac"] = shares["runtime.sched"]
	ph.layer["runtime.gc_frac"] = shares["runtime.gc"]
	ph.layer["trace.overhead_frac"] = ratio(ph.cost-base.cost, base.cost)
	for k, v := range ladder(seed) {
		ph.layer[k] = v
	}
	ph.attempted += base.attempted
	ph.failed += base.failed
	logBuckets(shares)
	if err := tr.write(stem+".spans.json", fp); err != nil {
		return err
	}
	return emit(os.Stdout, ph, ph.layer, perLayer)
}

// logBuckets prints every profile bucket above 0.5% to standard error,
// including packages that have no per-layer metric.
func logBuckets(shares map[string]float64) {
	var keys []string
	for k, v := range shares {
		if v >= 0.005 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return shares[keys[i]] > shares[keys[j]] })
	for _, k := range keys {
		logf("profile %-16s %5.1f%%", k, 100*shares[k])
	}
}

// emit prints the result line with exactly the metrics in defs; a
// metric the workload did not set is 0 (the layer was not exercised).
func emit(w io.Writer, ph *phase, values map[string]float64, defs []metricDef) error {
	res := result{
		Correct:   ph.failed == 0 && ph.attempted > 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Failed = 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
