package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"natle/internal/cache"
	"natle/internal/expt"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/service"
	"natle/internal/telemetry"
	"natle/internal/tle"
	"natle/internal/vtime"
)

// serviceBench is the committed BENCH_service.json: the SLO search's
// config and each scheme's result. The benchmark reads it and never
// writes it.
type serviceBench struct {
	Machine   string  `json:"machine"`
	Arrival   string  `json:"arrival"`
	WindowUs  float64 `json:"window_us"`
	TargetUs  float64 `json:"target_p99_us"`
	Quantile  float64 `json:"quantile"`
	BracketLo float64 `json:"bracket_lo_req_per_s"`
	BracketHi float64 `json:"bracket_hi_req_per_s"`
	Iters     int     `json:"bisection_iters"`
	Seed      int64   `json:"seed"`
	Schemes   []struct {
		Scheme    string  `json:"scheme"`
		Sustained float64 `json:"sustained_req_per_s"`
		LatencyUs float64 `json:"latency_us_at_sustained"`
		Probes    int     `json:"probes"`
	} `json:"schemes"`
}

func readServiceBench(root string) (*serviceBench, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCH_service.json"))
	if err != nil {
		return nil, err
	}
	var b serviceBench
	if err := json.Unmarshal(buf, &b); err != nil {
		return nil, fmt.Errorf("BENCH_service.json: %w", err)
	}
	if len(b.Schemes) == 0 {
		return nil, fmt.Errorf("BENCH_service.json: no schemes")
	}
	return &b, nil
}

// config returns the service config and SLO the committed file was
// generated with (htmbench -service -slo 1000).
func (b *serviceBench) config(scheme string) (service.Config, service.SLO, error) {
	prof := machine.LargeX52()
	if b.Machine != prof.Name {
		return service.Config{}, service.SLO{}, fmt.Errorf("BENCH_service.json: machine %q, have %q", b.Machine, prof.Name)
	}
	arr, err := service.LookupArrival(b.Arrival)
	if err != nil {
		return service.Config{}, service.SLO{}, err
	}
	us := func(x float64) vtime.Duration { return vtime.Duration(x * float64(vtime.Microsecond)) }
	cfg := service.Config{Prof: prof, Seed: b.Seed, Scheme: scheme, Arrival: arr, Window: us(b.WindowUs)}
	slo := service.SLO{Target: us(b.TargetUs), Quantile: b.Quantile, Lo: b.BracketLo, Hi: b.BracketHi, Iters: b.Iters}
	return cfg, slo, nil
}

// runSimKV repeats the committed SLO search over every scheme in
// BENCH_service.json, one host worker per core. The config is the
// committed one, seed included, so --seed does not change its inputs:
// the gate is the committed file itself.
func runSimKV(seed int64, tr *tracer, deadline time.Time) *phase {
	ph := newPhase()
	bench, err := readServiceBench(".") // run from the repository root
	if err != nil {
		ph.fail(1, "sim-kv: %v", err)
		return ph
	}
	n := len(bench.Schemes)
	cfgs := make([]service.Config, n)
	var slo service.SLO
	for i, s := range bench.Schemes {
		if cfgs[i], slo, err = bench.config(s.Scheme); err != nil {
			ph.fail(1, "sim-kv: %v", err)
			return ph
		}
	}

	workers := float64(expt.Workers(0))
	var setups, walls, rates, busys, idles, allocs, rss []float64
	var last []service.SLOResult
	for rep := 0; rep < 2 || time.Now().Before(deadline); rep++ {
		settle()
		root := tr.begin("round", 0)
		secs := make([]float64, n)
		a0 := allocMB()
		t0 := time.Now()
		rs := expt.Map(0, n, func(i int) service.SLOResult {
			id := tr.begin("service.SearchSLO "+cfgs[i].Scheme, root)
			s0 := time.Now()
			r := service.SearchSLO(cfgs[i], slo)
			secs[i] = time.Since(s0).Seconds()
			tr.end(id)
			return r
		})
		wall := time.Since(t0).Seconds()
		allocs = append(allocs, allocMB()-a0)
		rss = append(rss, peakRSSMB())
		// Set-up is timed after the searches, so its garbage stays out
		// of their memory peak.
		unprofiled(func() {
			for i := 0; i < setupReps; i++ {
				setups = append(setups, simKVSetup(cfgs, slo, tr, root))
			}
		})
		tr.end(root)

		var busy, reqs float64
		for i, r := range rs {
			busy += secs[i]
			for _, p := range r.Probes {
				reqs += p.Rate * cfgs[i].Window.Seconds()
			}
		}
		walls = append(walls, wall)
		rates = append(rates, reqs/wall)
		busys = append(busys, busy)
		idles = append(idles, 1-busy/(workers*wall))
		ph.attempted += int64(n)
		checkSimKV(ph, bench, rs)
		last = rs
	}

	ph.e2e["setup_s"] = median(setups)
	ph.e2e["wall_s"] = median(walls)
	ph.e2e["ops_per_s"] = median(rates)
	ph.e2e["goodput"] = 1 - ratio(float64(ph.failed), float64(ph.attempted))
	ph.e2e["peak_rss_mb"] = median(rss)
	ph.cost = ph.e2e["wall_s"]

	probes := 0
	for _, r := range last {
		probes += len(r.Probes)
	}
	ph.layer["service.search_s"] = median(busys) / float64(n)
	ph.layer["service.probes"] = float64(probes)
	ph.layer["service.host_ms_per_probe"] = 1e3 * median(busys) / float64(probes)
	ph.layer["expt.busy_s"] = median(busys)
	ph.layer["expt.idle_frac"] = median(idles)
	ph.layer["runtime.alloc_mb"] = median(allocs)
	if tr != nil {
		simKVCounts(ph, cfgs, last, tr)
	}
	return ph
}

// checkSimKV compares each scheme's search with the committed result.
func checkSimKV(ph *phase, bench *serviceBench, rs []service.SLOResult) {
	for i, r := range rs {
		want := bench.Schemes[i]
		lat := r.LatencyAt.Seconds() * 1e6
		if r.Scheme != want.Scheme || r.Sustained != want.Sustained || lat != want.LatencyUs || len(r.Probes) != want.Probes {
			ph.fail(1, "sim-kv %s: sustained %v req/s at %v us in %d probes, committed %v req/s at %v us in %d probes",
				want.Scheme, r.Sustained, lat, len(r.Probes), want.Sustained, want.LatencyUs, want.Probes)
		}
	}
}

// simKVSetup times what a probe pays before its first request:
// service.Run with a 1 ps arrival window (engine, HTM memory, shards
// and servers) for every scheme, plus generating the largest schedule
// a search replays (the bracket ceiling).
func simKVSetup(cfgs []service.Config, slo service.SLO, tr *tracer, parent int) float64 {
	t0 := time.Now()
	for _, cfg := range cfgs {
		c := cfg
		c.Rate, c.Window = slo.Lo, vtime.Duration(1)
		id := tr.begin("service.Run setup "+c.Scheme, parent)
		service.Run(c)
		tr.end(id)
	}
	c := cfgs[0]
	c.Rate = slo.Hi
	id := tr.begin("service.Schedule", parent)
	c.Schedule()
	tr.end(id)
	return time.Since(t0).Seconds()
}

// simKVCounts runs each scheme once at its sustained rate, the search's
// operating point, for the HTM, cache and elision counts that
// SearchSLO does not return.
func simKVCounts(ph *phase, cfgs []service.Config, rs []service.SLOResult, tr *tracer) {
	root := tr.begin("counts", 0)
	runs := expt.Map(0, len(cfgs), func(i int) *service.Result {
		c := cfgs[i]
		c.Rate = rs[i].Sustained
		id := tr.begin("service.Run "+c.Scheme, root)
		defer tr.end(id)
		return service.Run(c)
	})
	tr.end(root)
	var h htm.Stats
	var c cache.Stats
	var t tle.Stats
	for _, r := range runs {
		h = telemetry.Add(h, r.HTM)
		c = telemetry.Add(c, r.Cache)
		t = telemetry.Add(t, r.Sync.TLE)
	}
	ph.simCounts(h, c)
	ph.tleCounts(t)
}
