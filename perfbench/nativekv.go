package main

import (
	"fmt"
	"time"

	"natle/internal/native"
	"natle/internal/service"
	"natle/internal/telemetry"
	"natle/internal/vtime"
)

// nkvLimit is the end-to-end latency a request must meet to count
// toward goodput: BENCH_service.json's p99 target.
const nkvLimit = vtime.Millisecond

// nkvConfig is the native-kv trial: one shard with one server plus the
// dispatcher (two goroutines), poisson arrivals at 5e5 req/s, every
// other knob at its default.
func nkvConfig(seed int64) service.Config {
	return service.Config{
		Seed: seed, Scheme: "native-tle", Arrival: service.ArrivalPoisson,
		Rate: 5e5, Shards: 1, Servers: 1,
	}
}

// within returns how many observations of h are at most d,
// interpolating linearly inside the log2 bucket that holds d, as the
// histogram's own quantiles do.
func within(h telemetry.HistogramSnapshot, d vtime.Duration) float64 {
	var n float64
	for b, c := range h.Counts {
		lo, hi := vtime.Duration(0), vtime.Duration(1)
		if b > 0 {
			lo, hi = 1<<uint(b-1), 1<<uint(b)
		}
		switch {
		case hi <= d:
			n += float64(c)
		case lo < d:
			n += float64(c) * float64(d-lo) / float64(hi-lo)
		}
	}
	return n
}

// checkNativeKV applies the request-accounting gate to one call and,
// when nothing was shed, compares the final store with the simulator's
// run of the same schedule.
func checkNativeKV(r, simRef *service.Result) error {
	if r.Arrivals != uint64(r.Requests) || r.Arrivals != r.Admitted+r.Shed ||
		r.Admitted != r.Completed+r.DeadlineShed {
		return fmt.Errorf("accounting: %d requests, %d arrivals = %d admitted + %d shed, admitted = %d completed + %d deadline-shed",
			r.Requests, r.Arrivals, r.Admitted, r.Shed, r.Completed, r.DeadlineShed)
	}
	if r.Shed > 0 {
		return nil
	}
	if simRef.Shed > 0 {
		return fmt.Errorf("the simulator shed %d requests, so its store is no reference", simRef.Shed)
	}
	if r.StoreCheck != simRef.StoreCheck {
		return fmt.Errorf("store checksum %#x, simulator %#x", r.StoreCheck, simRef.StoreCheck)
	}
	return nil
}

func runNativeKV(seed int64, tr *tracer, deadline time.Time) *phase {
	ph := newPhase()
	cfg := nkvConfig(seed)
	simCfg := cfg
	simCfg.Scheme = "tle" // the simulated mirror of native-tle
	var simRef *service.Result
	unprofiled(func() { simRef = service.Run(simCfg) })

	var setups, walls, rates, worlds, scheds, lags, allocs, rss []float64
	var good, shed, arrivals, completed, batches float64
	var maxQueue int
	var e2e, queue, svc telemetry.HistogramSnapshot
	var last *service.Result
	checked := 0
	// A call is too short to settle before each one: the forced GC's
	// background marking would fill the profile. Only the peak-RSS
	// counter restarts per call; collection is left to the pacer.
	for call := 0; call < 3 || time.Now().Before(deadline); call++ {
		resetPeakRSS()
		root := tr.begin("call", 0)
		a0 := allocMB()
		var w *native.World
		var t0, t1, t2 time.Time
		unprofiled(func() {
			id := tr.begin("service.NativeMemWords", root)
			t0 = time.Now()
			words := cfg.NativeMemWords() // generates the schedule to size the world
			t1 = time.Now()
			tr.end(id)
			id = tr.begin("native.NewWorld", root)
			w = nativeWorld(words, seed)
			t2 = time.Now()
			tr.end(id)
		})
		id := tr.begin("service.RunNative", root)
		r := service.RunNative(w, cfg)
		t3 := time.Now()
		tr.end(id)
		tr.end(root)
		allocs = append(allocs, allocMB()-a0)
		rss = append(rss, peakRSSMB())

		drained := vtime.Duration(r.Drained).Seconds()
		setups = append(setups, t3.Sub(t0).Seconds()-drained)
		scheds = append(scheds, t1.Sub(t0).Seconds())
		worlds = append(worlds, t2.Sub(t1).Seconds())
		walls = append(walls, drained)
		rates = append(rates, ratio(float64(r.Completed), drained))
		lags = append(lags, 1e3*(r.Drained.Sub(r.LastArrival)).Seconds())

		ph.attempted += int64(r.Requests)
		if err := checkNativeKV(r, simRef); err != nil {
			ph.fail(int64(r.Requests), "native-kv call %d: %v", call, err)
			continue
		}
		if r.Shed == 0 {
			checked++
		}
		good += within(r.E2E, nkvLimit)
		shed += float64(r.Shed)
		arrivals += float64(r.Arrivals)
		completed += float64(r.Completed)
		batches += float64(r.Batches)
		maxQueue = max(maxQueue, r.PerShard[0].MaxQueue)
		e2e = telemetry.Add(e2e, r.E2E)
		queue = telemetry.Add(queue, r.Queue)
		svc = telemetry.Add(svc, r.Service)
		last = r
	}
	logf("native-kv: %d of %d calls shed nothing and matched the simulator's store", checked, len(walls))

	ph.e2e["setup_s"] = median(setups)
	ph.e2e["wall_s"] = median(walls)
	ph.e2e["ops_per_s"] = median(rates)
	// Shed requests and failed calls count as misses.
	ph.e2e["goodput"] = ratio(good, float64(ph.attempted))
	ph.e2e["peak_rss_mb"] = median(rss)
	ph.cost = 1 / ph.e2e["goodput"]

	us := func(h telemetry.HistogramSnapshot, q float64) float64 { return h.Quantile(q).Seconds() * 1e6 }
	ph.layer["service.shed_frac"] = ratio(shed, arrivals)
	ph.layer["service.avg_batch"] = ratio(completed, batches)
	ph.layer["service.max_queue"] = float64(maxQueue)
	ph.layer["service.queue_p50_us"] = us(queue, 0.5)
	ph.layer["service.queue_p99_us"] = us(queue, 0.99)
	ph.layer["service.svc_p50_us"] = us(svc, 0.5)
	ph.layer["service.svc_p99_us"] = us(svc, 0.99)
	ph.layer["service.e2e_p50_us"] = us(e2e, 0.5)
	ph.layer["service.e2e_p99_us"] = us(e2e, 0.99)
	ph.layer["service.e2e_p999_us"] = us(e2e, 0.999)
	ph.layer["service.drain_lag_ms"] = median(lags)
	ph.layer["service.schedule_s"] = median(scheds)
	ph.layer["native.world_alloc_s"] = median(worlds)
	ph.layer["runtime.alloc_mb"] = median(allocs)
	if last != nil {
		ph.tleCounts(last.Sync.TLE)
	}
	return ph
}
