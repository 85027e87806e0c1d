package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"natle/internal/arena"
	"natle/internal/backend"
	"natle/internal/native"
	"natle/internal/scheme"
	"natle/internal/sets"
)

// The native-sets loop: nsThreads goroutines, each running its own
// pre-generated operations on one AVL tree, every operation one
// native-tle critical section. Reads go to any key; writes go only to
// the caller's own keys (key ≡ thread mod nsThreads), so the final
// contents and every own-key result can be replayed per thread.
const (
	nsThreads  = 2
	nsKeys     = 4096
	nsReadPct  = 90
	nsOps      = 1 << 17 // per thread per round
	nsScheme   = "native-tle"
	opContains = 0
	opInsert   = 1
	opDelete   = 2
)

// nsInput is one round's generated inputs. An op packs key<<2 | kind.
type nsInput struct {
	prefill []int64
	ops     [nsThreads][]uint32
}

func nsInputs(seed int64, round int) *nsInput {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(round)))
	in := &nsInput{}
	for _, k := range rng.Perm(nsKeys)[:nsKeys/2] {
		in.prefill = append(in.prefill, int64(k))
	}
	for t := range in.ops {
		ops := make([]uint32, nsOps)
		for i := range ops {
			switch {
			case rng.IntN(100) < nsReadPct:
				ops[i] = uint32(rng.IntN(nsKeys))<<2 | opContains
			default:
				key := uint32(nsThreads*rng.IntN(nsKeys/nsThreads) + t)
				ops[i] = key<<2 | uint32(opInsert+rng.IntN(2))
			}
		}
		in.ops[t] = ops
	}
	return in
}

// laneWords sizes every arena lane for the most inserts any one lane
// sees: the bump allocator never reuses deleted nodes.
func (in *nsInput) laneWords() int {
	most := len(in.prefill)
	for _, ops := range in.ops {
		n := 0
		for _, op := range ops {
			if op&3 == opInsert {
				n++
			}
		}
		most = max(most, n)
	}
	return most * sets.InsertWords(sets.KindAVL)
}

// nsRound is what one round measured and returned.
type nsRound struct {
	schedS, worldS, setupS float64 // set-up parts, host seconds
	runS                   float64 // first op to last op
	world                  *native.World
	set                    *sets.BackendSet
	stats                  scheme.Stats
	results                [nsThreads][]bool
	// Traced only: per-op Critical and body nanoseconds, body runs.
	csNs, bodyNs [nsThreads][]int32
	runs         int64
}

func nsRun(seed int64, round int, tr *tracer, parent int) (*nsInput, *nsRound) {
	out := &nsRound{}
	var in *nsInput
	var lane int
	var w *native.World
	lanes := nsThreads + 1
	unprofiled(func() {
		id := tr.begin("inputs", parent)
		t0 := time.Now()
		in = nsInputs(seed, round)
		lane = in.laneWords()
		out.schedS = time.Since(t0).Seconds()
		tr.end(id)

		words := 64 + lanes*(arena.RoundLine(lane)+16)
		id = tr.begin("native.NewWorld", parent)
		t0 = time.Now()
		w = nativeWorld(words, seed)
		out.worldS = time.Since(t0).Seconds()
		tr.end(id)
	})
	out.world = w

	desc, err := scheme.LookupFor(backend.Native, nsScheme)
	if err != nil {
		panic(err) // the scheme is registered by the native package's init
	}
	var cs scheme.BackendInstance
	var starts, ends [nsThreads]int64
	var runs [nsThreads]int64
	for t := range out.results {
		out.results[t] = make([]bool, nsOps)
		if tr != nil {
			out.csNs[t] = make([]int32, nsOps)
			out.bodyNs[t] = make([]int32, nsOps)
		}
	}
	runID := tr.begin("World.Run", parent)
	var setupID int
	w.Run(nsThreads, func(c backend.Ctx) {
		unprofiled(func() {
			setupID = tr.begin("World.Run setup", runID)
			t0 := time.Now()
			ar := arena.New(c, lanes, lane)
			out.set, err = sets.NewBackendSet(sets.KindAVL, c, ar)
			if err != nil {
				panic(err)
			}
			for _, k := range in.prefill {
				out.set.Insert(c, k)
			}
			cs = desc.NewNative(w, c)
			out.setupS = time.Since(t0).Seconds()
			tr.end(setupID)
		})
	}, func(c backend.Ctx) {
		t := c.Thread()
		ops, res := in.ops[t], out.results[t]
		var op uint32
		var r bool
		body := func() {
			key := int64(op >> 2)
			switch op & 3 {
			case opContains:
				r = out.set.Contains(c, key)
			case opInsert:
				r = out.set.Insert(c, key)
			default:
				r = out.set.Delete(c, key)
			}
		}
		if tr == nil {
			starts[t] = c.Now()
			for i, x := range ops {
				op = x
				cs.Critical(c, body)
				res[i] = r
			}
			ends[t] = c.Now()
			return
		}
		// Traced: a span around every Critical and around every run of
		// its body, aborted runs included.
		var bodyNs int64
		timed := func() {
			runs[t]++
			b0 := c.Now()
			defer func() { bodyNs += c.Now() - b0 }()
			body()
		}
		csNs, bNs := out.csNs[t], out.bodyNs[t]
		starts[t] = c.Now()
		for i, x := range ops {
			op, bodyNs = x, 0
			c0 := c.Now()
			cs.Critical(c, timed)
			csNs[i] = int32(c.Now() - c0)
			bNs[i] = int32(bodyNs)
			res[i] = r
		}
		ends[t] = c.Now()
	})
	tr.end(runID)
	out.runS = float64(slices.Max(ends[:])-slices.Min(starts[:])) / 1e9
	out.stats = cs.Stats()
	for _, n := range runs {
		out.runs += n
	}
	return in, out
}

// checkNativeSets verifies one round and returns the number of failed
// operations: every own-key result must match a per-thread replay, and
// any structural failure (invariants, final contents, commits plus
// fallbacks against operations) fails the whole round.
func checkNativeSets(in *nsInput, out *nsRound) (int64, error) {
	present := make([]bool, nsKeys)
	for _, k := range in.prefill {
		present[k] = true
	}
	var bad int64
	for t, ops := range in.ops {
		for i, op := range ops {
			key := op >> 2
			if int(key)%nsThreads != t {
				continue // another thread may be writing it
			}
			got := out.results[t][i]
			switch op & 3 {
			case opContains:
				if got != present[key] {
					bad++
				}
			case opInsert:
				if got == present[key] {
					bad++
				}
				present[key] = true
			default:
				if got != present[key] {
					bad++
				}
				present[key] = false
			}
		}
	}
	all := int64(nsThreads * nsOps)
	if err := out.set.CheckInvariants(out.world); err != nil {
		return all, fmt.Errorf("invariants: %w", err)
	}
	var want []int64
	for k, ok := range present {
		if ok {
			want = append(want, int64(k))
		}
	}
	if got := out.set.Keys(out.world); !slices.Equal(got, want) {
		return all, fmt.Errorf("final contents: %d keys, replay has %d", len(got), len(want))
	}
	st := out.stats.TLE
	if st.Ops != uint64(all) || st.Commits+st.Fallbacks != st.Ops {
		return all, fmt.Errorf("%d ops, %d commits + %d fallbacks, want %d", st.Ops, st.Commits, st.Fallbacks, all)
	}
	if bad > 0 {
		return bad, fmt.Errorf("%d own-key results differ from the replay", bad)
	}
	return 0, nil
}

func runNativeSets(seed int64, tr *tracer, deadline time.Time) *phase {
	ph := newPhase()
	var setups, runs, rates, worlds, allocs, rss []float64
	var csP50, csP99, selfNs, opNs, attempts []float64
	var last *nsRound
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		settle()
		root := tr.begin("round", 0)
		a0 := allocMB()
		in, out := nsRun(seed, round, tr, root)
		allocs = append(allocs, allocMB()-a0)
		rss = append(rss, peakRSSMB())
		tr.end(root)

		setups = append(setups, out.schedS+out.worldS+out.setupS)
		worlds = append(worlds, out.worldS)
		runs = append(runs, out.runS)
		rates = append(rates, nsThreads*nsOps/out.runS)
		ph.attempted += nsThreads * nsOps
		unprofiled(func() {
			if bad, err := checkNativeSets(in, out); err != nil {
				ph.fail(bad, "native-sets round %d: %v", round, err)
			}
			if tr != nil {
				p50, p99, self, op := nsSpanStats(out)
				csP50, csP99 = append(csP50, p50), append(csP99, p99)
				selfNs, opNs = append(selfNs, self), append(opNs, op)
				attempts = append(attempts, float64(out.runs)/(nsThreads*nsOps))
			}
		})
		last = out
	}
	ph.e2e["setup_s"] = median(setups)
	ph.e2e["wall_s"] = median(runs)
	ph.e2e["ops_per_s"] = median(rates)
	ph.e2e["goodput"] = 1 - ratio(float64(ph.failed), float64(ph.attempted))
	ph.e2e["peak_rss_mb"] = median(rss)
	ph.cost = 1 / ph.e2e["ops_per_s"]

	ph.tleCounts(last.stats.TLE)
	ph.layer["scheme.cs_p50_ns"] = median(csP50)
	ph.layer["scheme.cs_p99_ns"] = median(csP99)
	ph.layer["scheme.self_ns"] = median(selfNs)
	ph.layer["scheme.attempts_per_op"] = median(attempts)
	ph.layer["sets.op_ns"] = median(opNs)
	ph.layer["native.world_alloc_s"] = median(worlds)
	ph.layer["runtime.alloc_mb"] = median(allocs)
	return ph
}

// nsSpanStats reduces one traced round's per-op spans: Critical p50 and
// p99, mean scheme self time (Critical minus its body runs) and the
// median body time.
func nsSpanStats(out *nsRound) (p50, p99, selfNs, opNs float64) {
	var cs, body nsHist
	var self float64
	n := 0
	for t := range out.csNs {
		for i, c := range out.csNs[t] {
			cs.add(c)
			body.add(out.bodyNs[t][i])
			self += float64(c - out.bodyNs[t][i])
			n++
		}
	}
	return cs.quantile(0.5), cs.quantile(0.99), self / float64(n), body.quantile(0.5)
}

// nsHist counts span lengths at 1 ns resolution; spans of 65 us or
// more share the last bucket.
type nsHist [1 << 16]uint32

func (h *nsHist) add(ns int32) {
	h[min(max(int(ns), 0), len(h)-1)]++
}

func (h *nsHist) quantile(q float64) float64 {
	var total float64
	for _, c := range h {
		total += float64(c)
	}
	var cum float64
	for i, c := range h {
		if cum += float64(c); cum >= q*total {
			return float64(i)
		}
	}
	return float64(len(h) - 1)
}
