package main

// The -backend=native side of htmbench: thread sweeps of the
// backend-agnostic workloads on real goroutines over real memory,
// timed by the wall clock. Numbers are host- and load-dependent and
// never feed the deterministic figure pipeline; the committed
// BENCH_native.json snapshot (written via -benchjson) is structurally
// stable with a host fingerprint explaining its values.

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"natle/internal/fault"
	"natle/internal/harness"
	"natle/internal/native"
	"natle/internal/service"
	"natle/internal/sets"
	"natle/internal/tle"
	"natle/internal/vtime"
	"natle/internal/workload"
)

type nativeArgs struct {
	lock       string
	workload   string
	set        sets.Kind
	threadsCSV string
	ops        int
	seed       int64
	keys       int
	work       int
	pol        tle.Policy
	fault      *fault.Profile
	faultName  string
	benchJSON  string
}

// nativeWorkloadHelp is the -workload flag help on the native backend;
// it is generated from the one workload registry, and a test holds the
// two in agreement (see TestNativeWorkloadFlagMatchesRegistry).
func nativeWorkloadHelp() string {
	return "native backend: workload: " + strings.Join(workload.BackendWorkloads(), " | ")
}

func runNative(a nativeArgs) {
	if !workload.IsBackendWorkload(a.workload) {
		fmt.Fprintf(os.Stderr, "unknown workload %q (have %s)\n",
			a.workload, strings.Join(workload.BackendWorkloads(), " | "))
		exit(2)
	}
	if a.workload == workload.BackendSets && sets.InsertWords(a.set) == 0 {
		fmt.Fprintf(os.Stderr, "unknown set kind %q\n", a.set)
		exit(2)
	}
	var counts []int
	if a.threadsCSV != "" {
		for _, f := range strings.Split(a.threadsCSV, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad thread count %q\n", f)
				exit(2)
			}
			counts = append(counts, n)
		}
	}
	cfg := harness.NativeSweepConfig{
		Lock:         a.lock,
		Workload:     a.workload,
		Threads:      counts,
		Ops:          a.ops,
		Seed:         a.seed,
		KeyRange:     a.keys,
		Set:          a.set,
		ExternalWork: a.work,
		TLE:          a.pol,
		Fault:        a.fault,
	}
	host := harness.Fingerprint()
	wlDesc := a.workload
	if a.workload == workload.BackendSets {
		wlDesc += " set=" + string(a.set)
	}
	fmt.Printf("# backend=native lock=%s workload=%s ops/thread=%d seed=%d\n",
		a.lock, wlDesc, a.ops, a.seed)
	if a.fault != nil {
		fmt.Printf("# fault schedule: %s\n", a.faultName)
	}
	fmt.Printf("# wall-clock timing on %s/%s, %d CPUs, %s — host-dependent, not comparable to sim figures\n",
		host.GOOS, host.GOARCH, host.CPUs, host.GoVersion)
	fmt.Printf("%8s %14s %8s %12s %12s %12s\n",
		"threads", "ops/sec", "speedup", "commits", "aborts", "fallbacks")
	var base float64
	for _, r := range harness.NativeSweep(cfg) {
		var commits, aborts, fallbacks uint64
		for _, s := range r.Sync {
			commits += s.TLE.Commits
			aborts += s.TLE.TotalAborts()
			fallbacks += s.TLE.Fallbacks
		}
		tput := r.Throughput()
		if base == 0 {
			base = tput
		}
		fmt.Printf("%8d %14.0f %8.2f %12d %12d %12d\n",
			r.Threads, tput, tput/base, commits, aborts, fallbacks)
		if a.fault != nil {
			fmt.Println("    " + r.Fault.String())
		}
	}
	if a.benchJSON != "" {
		snap := harness.NativeBenchSnapshot(cfg)
		f, err := os.Create(a.benchJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		werr := writeNativeBench(f, snap)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			exit(1)
		}
		fmt.Printf("wrote %s (%d schemes x %d workloads)\n", a.benchJSON,
			len(snap.Workloads[0].Schemes), len(snap.Workloads))
	}
}

// writeNativeBench streams the marshaled snapshot to w, propagating
// both marshal and write failures (a full disk must not exit zero
// with a truncated BENCH_native.json behind it).
func writeNativeBench(w io.Writer, snap *harness.NativeBench) error {
	buf, err := harness.MarshalNativeBench(snap)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("write native bench: %w", err)
	}
	return nil
}

// defaultNativeServiceRates is the native rate sweep: lower than the
// simulated sweep, since the dispatcher replays the schedule against
// the wall clock of whatever host this is.
var defaultNativeServiceRates = []float64{2e5, 1e6, 4e6}

type nativeServiceArgs struct {
	scheme   string
	arrival  string
	rates    string
	shards   int
	servers  int
	batch    int
	qcap     int
	window   vtime.Duration
	seed     int64
	deadline vtime.Duration
}

// runNativeService runs the open-loop KV service on the native
// backend: the same schedule generator and pipeline shape as the
// simulated -service mode, on real goroutines (see service.RunNative).
// Trials run sequentially — wall-clock measurements must not contend
// with each other for the host.
func runNativeService(a nativeServiceArgs) {
	kind, err := service.LookupArrival(a.arrival)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	sweep := defaultNativeServiceRates
	if a.rates != "" {
		sweep = sweep[:0]
		for _, f := range strings.Split(a.rates, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || r <= 0 {
				fmt.Fprintf(os.Stderr, "bad rate %q\n", f)
				exit(2)
			}
			sweep = append(sweep, r)
		}
	}
	cfg := service.Config{
		Seed:     a.seed,
		Scheme:   a.scheme,
		Arrival:  kind,
		Window:   a.window,
		Shards:   a.shards,
		Servers:  a.servers,
		Batch:    a.batch,
		QueueCap: a.qcap,
		Deadline: a.deadline,
	}
	host := harness.Fingerprint()
	fmt.Printf("# backend=native, service: scheme=%s arrival=%s window=%v seed=%d\n",
		a.scheme, a.arrival, a.window, a.seed)
	fmt.Printf("# wall-clock timing on %s/%s, %d CPUs, %s — host-dependent, not comparable to sim figures\n",
		host.GOOS, host.GOARCH, host.CPUs, host.GoVersion)
	if a.deadline > 0 {
		fmt.Printf("# overload control: deadline=%v\n", a.deadline)
	}
	fmt.Printf("%12s %8s %7s %7s %7s %12s %12s %12s %9s %9s\n",
		"rate(r/s)", "reqs", "shed%", "dshed%", "miss%", "p50", "p99", "p999", "avgbatch", "fallback")
	for _, rate := range sweep {
		c := cfg
		c.Rate = rate
		w := native.NewWorld(native.Config{Seed: c.Seed, Words: c.NativeMemWords()})
		r := service.RunNative(w, c)
		avgBatch := 0.0
		if r.Batches > 0 {
			avgBatch = float64(r.Completed) / float64(r.Batches)
		}
		fmt.Printf("%12.4g %8d %6.2f%% %6.2f%% %6.2f%% %12v %12v %12v %9.2f %9d\n",
			rate, r.Requests, 100*r.ShedFraction(),
			100*r.DeadlineShedFraction(), 100*r.DeadlineMissFraction(),
			r.E2E.Quantile(0.50), r.E2E.Quantile(0.99), r.E2E.Quantile(0.999),
			avgBatch, r.Sync.TLE.Fallbacks)
		if r.BatchClamped {
			fmt.Printf("             # batch clamped to 1: scheme %q lacks the batch capability\n", a.scheme)
		}
	}
}

// runNativeChaos runs the native half of the chaos matrix: every
// requested fault schedule against the robust native schemes over the
// backend-agnostic workloads, invariants checked per cell. Reports to
// stdout and returns whether every cell held.
func runNativeChaos(seed int64, only string) bool {
	cfg := harness.NativeChaosConfig{Seed: seed}
	if only != "" {
		cfg.Schedules = []string{only}
	}
	cells, err := harness.RunNativeChaos(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	report, ok := harness.NativeChaosReport(cells)
	fmt.Print(report)
	if !ok {
		fmt.Fprintln(os.Stderr, "chaos(native): invariant violations detected")
	}
	return ok
}
