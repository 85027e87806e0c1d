package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"natle/internal/backend"
	"natle/internal/cache"
	"natle/internal/expt"
	"natle/internal/harness"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/scheme"
	"natle/internal/sets"
	"natle/internal/sim"
	"natle/internal/telemetry"
	"natle/internal/tle"
	"natle/internal/workload"
)

// simTrial is one trial of the sim-sets sweep.
type simTrial struct {
	Lock    workload.LockKind
	Threads int
}

func (t simTrial) String() string { return fmt.Sprintf("%s/%d", t.Lock, t.Threads) }

// simSetsTrials is the Fig 1/12 cliff: TLE and NATLE on either side of
// the socket boundary (36 threads fill socket 0, 72 span both).
var simSetsTrials = []simTrial{
	{workload.LockTLE, 36}, {workload.LockTLE, 72},
	{workload.LockNATLE, 36}, {workload.LockNATLE, 72},
}

// simSetsConfig is the Fig 12 upd100/work0 trial at quick scale: the
// NATLE window (3.6 ms) holds three full profiling cycles (1.2 ms).
func simSetsConfig(t simTrial, seed int64) workload.Config {
	sc := harness.QuickScale()
	cfg := workload.Config{
		Threads: t.Threads, Seed: seed, Lock: t.Lock,
		SetKind: sets.KindAVL, KeyRange: 2048, UpdatePct: 100,
		Duration: sc.Dur, Warmup: sc.Warmup,
	}
	if t.Lock == workload.LockNATLE {
		n := sc.NATLE
		cfg.NATLE = &n
		cfg.Duration, cfg.Warmup = sc.NATLEDur, sc.NATLEWarmup
	}
	return cfg
}

// simCounters are one trial's simulated outputs. They are a pure
// function of the config and seed, so a change that only speeds up the
// simulator must leave them identical.
type simCounters struct {
	Ops       uint64      `json:"ops"`
	HTM       htm.Stats   `json:"htm"`
	Cache     cache.Stats `json:"cache"`
	Fallbacks uint64      `json:"tle_fallbacks"`
}

func countersOf(r *workload.Result) simCounters {
	return simCounters{Ops: r.Ops, HTM: r.HTM, Cache: r.Cache, Fallbacks: r.Sync.TLE.Fallbacks}
}

// expectSimSets holds the counters recorded with this benchmark, by
// seed, in simSetsTrials order. Regenerate with -record.
//
//go:embed expect_sim_sets.json
var expectSimSetsJSON []byte

func expectedSimSets(seed int64) ([]simCounters, error) {
	var all map[string][]simCounters
	if err := json.Unmarshal(expectSimSetsJSON, &all); err != nil {
		return nil, fmt.Errorf("expect_sim_sets.json: %w", err)
	}
	want := all[strconv.FormatInt(seed, 10)]
	if want != nil && len(want) != len(simSetsTrials) {
		return nil, fmt.Errorf("expect_sim_sets.json: seed %d has %d trials, want %d", seed, len(want), len(simSetsTrials))
	}
	return want, nil
}

// recordSimSets prints the expectation file for seeds 1..n, one trial
// per line, so a model change reads as a line-by-line diff.
func recordSimSets(n int64) error {
	var b strings.Builder
	b.WriteString("{")
	for seed := int64(1); seed <= n; seed++ {
		rs, _ := simSetsSweep(seed, nil, 0)
		sep := ","
		if seed == n {
			sep = ""
		}
		fmt.Fprintf(&b, "\n %q: [", strconv.FormatInt(seed, 10))
		for i, r := range rs {
			line, err := json.Marshal(countersOf(r))
			if err != nil {
				return err
			}
			comma := ","
			if i == len(rs)-1 {
				comma = ""
			}
			fmt.Fprintf(&b, "\n  %s%s", line, comma)
		}
		fmt.Fprintf(&b, "\n ]%s", sep)
	}
	b.WriteString("\n}")
	fmt.Println(b.String())
	return nil
}

// simSetsSweep runs the four trials on one host worker per core and
// returns them in trial order with each trial's host seconds.
func simSetsSweep(seed int64, tr *tracer, parent int) ([]*workload.Result, []float64) {
	secs := make([]float64, len(simSetsTrials))
	rs := expt.Map(0, len(simSetsTrials), func(i int) *workload.Result {
		id := tr.begin("workload.Run "+simSetsTrials[i].String(), parent)
		t0 := time.Now()
		r := workload.Run(simSetsConfig(simSetsTrials[i], seed))
		secs[i] = time.Since(t0).Seconds()
		tr.end(id)
		return r
	})
	return rs, secs
}

// simSetsSetup times the world each trial builds before its workers
// start, through the public calls workload.Run makes for it: the
// engine, the HTM memory (workload's default 1<<20 words), the scheme
// instance and the prefilled set. It sums the four trials, as one sweep
// pays them. (workload.Run itself reports no host-time split.)
func simSetsSetup(seed int64, tr *tracer, parent int) float64 {
	var total float64
	for _, t := range simSetsTrials {
		cfg := simSetsConfig(t, seed)
		desc, err := scheme.LookupFor(backend.Sim, string(cfg.Lock))
		if err != nil {
			panic(err) // the sim schemes are registered by the scheme package
		}
		desc = desc.Configure(scheme.Options{TLE: tle.TLE20(), NATLE: cfg.NATLE})
		id := tr.begin("world setup "+t.String(), parent)
		t0 := time.Now()
		e := sim.New(machine.LargeX52(), machine.FillSocketFirst{}, cfg.Threads, cfg.Seed)
		sys := htm.NewSystem(e, 1<<20)
		e.Spawn(nil, func(c *sim.Ctx) {
			set, err := sets.New(cfg.SetKind, sys, c)
			if err != nil {
				panic(err)
			}
			desc.New(sys, c, 0)
			sets.Prefill(set, c, cfg.KeyRange)
		})
		e.Run()
		total += time.Since(t0).Seconds()
		tr.end(id)
	}
	return total
}

func runSimSets(seed int64, tr *tracer, deadline time.Time) *phase {
	ph := newPhase()
	want, err := expectedSimSets(seed)
	if err != nil {
		ph.fail(1, "%v", err)
		return ph
	}
	if want == nil {
		logf("sim-sets: no recorded counters for seed %d; checking repetitions, conservation and shape only", seed)
	}
	workers := float64(expt.Workers(0))
	var setups, walls, rates, busys, idles, allocs, rss []float64
	var first []simCounters
	var last []*workload.Result
	for rep := 0; rep < 2 || time.Now().Before(deadline); rep++ {
		settle()
		root := tr.begin("sweep", 0)
		a0 := allocMB()
		t0 := time.Now()
		rs, secs := simSetsSweep(seed, tr, root)
		wall := time.Since(t0).Seconds()
		allocs = append(allocs, allocMB()-a0)
		rss = append(rss, peakRSSMB())
		// Set-up is timed after the sweep, so its garbage stays out of
		// the sweep's memory peak.
		unprofiled(func() {
			for i := 0; i < setupReps; i++ {
				setups = append(setups, simSetsSetup(seed, tr, root))
			}
		})
		tr.end(root)

		var busy float64
		var ops uint64
		for i, r := range rs {
			busy += secs[i]
			ops += r.Ops
		}
		walls = append(walls, wall)
		rates = append(rates, float64(ops)/wall)
		busys = append(busys, busy)
		idles = append(idles, 1-busy/(workers*wall))

		got := make([]simCounters, len(rs))
		for i, r := range rs {
			got[i] = countersOf(r)
		}
		if first == nil {
			first = got
		}
		ph.attempted += int64(len(rs))
		unprofiled(func() { checkSimSets(ph, rs, got, want, first) })
		last = rs
	}

	ph.e2e["setup_s"] = median(setups)
	ph.e2e["wall_s"] = median(walls)
	ph.e2e["ops_per_s"] = median(rates)
	ph.e2e["goodput"] = 1 - ratio(float64(ph.failed), float64(ph.attempted))
	ph.e2e["peak_rss_mb"] = median(rss)
	ph.cost = ph.e2e["wall_s"]

	var h htm.Stats
	var c cache.Stats
	var t tle.Stats
	var ops uint64
	for _, r := range last {
		h = telemetry.Add(h, r.HTM)
		c = telemetry.Add(c, r.Cache)
		t = telemetry.Add(t, r.Sync.TLE)
		ops += r.Ops
	}
	ph.simCounts(h, c)
	ph.tleCounts(t)
	ph.layer["workload.sim_ops"] = float64(ops)
	ph.layer["workload.host_us_per_sim_op"] = 1e6 * median(busys) / float64(ops)
	ph.layer["expt.busy_s"] = median(busys)
	ph.layer["expt.idle_frac"] = median(idles)
	ph.layer["runtime.alloc_mb"] = median(allocs)
	return ph
}

// checkSimSets applies the sim-sets gate to one sweep: the recorded
// counters (when the seed has them), identity with the run's first
// sweep, HTM and TLE conservation, and the paper's shape. Each failing
// trial counts once.
func checkSimSets(ph *phase, rs []*workload.Result, got, want, first []simCounters) {
	thr := func(i int) float64 { return rs[i].Throughput() }
	shapeOK := thr(1) < thr(0) && thr(3) > thr(1)
	if !shapeOK {
		logf("GATE FAILED: sim-sets: paper shape broken: tle/36 %.4g, tle/72 %.4g, natle/72 %.4g ops/s",
			thr(0), thr(1), thr(3))
	}
	for i, g := range got {
		name := simSetsTrials[i].String()
		switch {
		case want != nil && g != want[i]:
			ph.fail(1, "sim-sets %s: counters %+v, recorded %+v", name, g, want[i])
		case g != first[i]:
			ph.fail(1, "sim-sets %s: counters differ between repetitions: %+v vs %+v", name, g, first[i])
		case !conserved(rs[i]):
			ph.fail(1, "sim-sets %s: HTM or TLE counters do not balance: %v, %+v", name, rs[i].HTM, rs[i].Sync.TLE)
		case !shapeOK:
			ph.failed++
		}
	}
}

// conserved checks that every transaction started in the window ended
// in a commit or an abort, and every critical section committed or fell
// back, up to the one section per thread in flight at each window edge.
func conserved(r *workload.Result) bool {
	slack := int64(2 * r.Config.Threads)
	h, t := r.HTM, r.Sync.TLE
	near := func(a, b uint64) bool {
		d := int64(a) - int64(b)
		return d <= slack && d >= -slack
	}
	return near(h.Starts, h.Commits+h.TotalAborts()) && near(t.Commits+t.Fallbacks, t.Ops) &&
		h.Starts > 0 && t.Ops > 0
}
