package main

import (
	"math/rand/v2"
	"sort"
	"time"

	"natle/internal/arena"
	"natle/internal/backend"
	"natle/internal/cache"
	"natle/internal/htm"
	"natle/internal/machine"
	"natle/internal/mem"
	"natle/internal/native"
	"natle/internal/scheme"
	"natle/internal/sim"
	"natle/internal/vtime"
)

// sink keeps timed loads from being optimized away.
var sink uint64

// ladderReps timed batches make one rung; the rung is their median.
// The rungs take turns batch by batch, so a slow spell of the host
// lands on all of them rather than on one.
const ladderReps = 11

// rung is one timed batch of calls: it returns how many calls it made
// and how long they took.
type rung func() (int, time.Duration)

// ladder times single public calls in isolation, in host nanoseconds
// per call: the simulator's handoff, cache and HTM steps, and the
// native word load through each layer up to an empty critical section.
func ladder(seed int64) map[string]float64 {
	samples := map[string][]float64{}
	withNativeRungs(seed, func(native map[string]rung) {
		rungs := map[string]rung{
			"sim.handoff_ns":   simHandoff,
			"cache.access_ns":  func() (int, time.Duration) { return cacheAccess(seed) },
			"htm.tx_access_ns": htmTry,
		}
		for k, f := range native {
			rungs[k] = f
		}
		names := make([]string, 0, len(rungs))
		for k := range rungs {
			names = append(names, k)
		}
		sort.Strings(names)
		for i := 0; i < ladderReps; i++ {
			for _, k := range names {
				n, d := rungs[k]()
				samples[k] = append(samples[k], float64(d.Nanoseconds())/float64(n))
			}
		}
	})
	out := map[string]float64{}
	for k, xs := range samples {
		out[k] = median(xs)
	}
	return out
}

// simHandoff alternates two simulated threads: each Advance passes the
// engine's slack, so every Checkpoint hands the token to the other.
func simHandoff() (int, time.Duration) {
	const n = 20000
	e := sim.New(machine.LargeX52(), nil, 2, 1)
	for i := 0; i < 2; i++ {
		e.Spawn(nil, func(c *sim.Ctx) {
			for j := 0; j < n; j++ {
				c.Advance(200 * vtime.Nanosecond)
				c.Checkpoint()
			}
		})
	}
	t0 := time.Now()
	e.Run()
	return 2 * n, time.Since(t0)
}

// cacheAccess drives the coherence model with a seeded stream of reads
// and writes from cores on both sockets to lines homed on both.
func cacheAccess(seed int64) (int, time.Duration) {
	const lines = 4096
	p := machine.LargeX52()
	m := cache.New(p)
	m.EnsureLines(lines)
	type access struct {
		core  int
		line  int32
		write bool
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 1))
	stream := make([]access, 1<<16)
	for i := range stream {
		stream[i] = access{rng.IntN(p.Cores()), int32(rng.IntN(lines)), rng.IntN(4) == 0}
	}
	now := vtime.Time(0)
	t0 := time.Now()
	for _, a := range stream {
		d := m.Access(now, a.core, p.SocketOfCore(a.core), int(a.line)%p.Sockets, a.line, a.write)
		now = now.Add(d + 10*vtime.Nanosecond)
	}
	return len(stream), time.Since(t0)
}

// htmTry commits transactions with a fixed footprint of eight read
// lines and two written lines; the result is per transactional access.
func htmTry() (int, time.Duration) {
	const tries, reads, writes = 20000, 8, 2
	e := sim.New(machine.LargeX52(), nil, 1, 1)
	sys := htm.NewSystem(e, 1<<16)
	var d time.Duration
	e.Spawn(nil, func(c *sim.Ctx) {
		base := sys.Alloc(c, mem.WordsPerLine*(reads+writes))
		line := func(j int) mem.Addr { return base + mem.Addr(j*mem.WordsPerLine) }
		i := 0
		body := func() {
			for j := 0; j < reads; j++ {
				sink += sys.Read(c, line(j))
			}
			for j := 0; j < writes; j++ {
				sys.Write(c, line(reads+j), uint64(i))
			}
		}
		t0 := time.Now()
		for i = 0; i < tries; i++ {
			sys.Try(c, body)
		}
		d = time.Since(t0)
	})
	e.Run()
	return tries * (reads + writes), d
}

// withNativeRungs builds the native ladder on one worker thread — a
// plain Thread.Load, the arena adapter's Load, loads inside a
// native-tle section, and empty native-tle and native-mutex sections —
// and hands it to f on that thread.
func withNativeRungs(seed int64, f func(map[string]rung)) {
	const words, loads, txLoads, sections = 1024, 1 << 20, 256, 1 << 18
	tleDesc, err := scheme.LookupFor(backend.Native, "native-tle")
	if err != nil {
		panic(err)
	}
	mutexDesc, err := scheme.MutexFor(backend.Native)
	if err != nil {
		panic(err)
	}
	w := nativeWorld(1<<16, seed)
	var ar *arena.Arena
	var base int
	w.Run(1, func(c backend.Ctx) {
		ar = arena.New(c, 2, words)
		base = c.Alloc(words)
	}, func(c backend.Ctx) {
		th := c.(*native.Thread)
		m := arena.Bind(c, ar)
		tle := tleDesc.NewNative(w, c)
		mutex := mutexDesc.NewNative(w, c)
		empty := func() {}
		txBody := func() {
			for j := 0; j < txLoads; j++ {
				sink += th.Load(base + j)
			}
		}
		f(map[string]rung{
			"native.load_ns": func() (int, time.Duration) {
				t0 := time.Now()
				for i := 0; i < loads; i++ {
					sink += th.Load(base + i%words)
				}
				return loads, time.Since(t0)
			},
			"arena.load_ns": func() (int, time.Duration) {
				t0 := time.Now()
				for i := 0; i < loads; i++ {
					sink += m.Load(uint64(base + i%words))
				}
				return loads, time.Since(t0)
			},
			"native.tx_load_ns": func() (int, time.Duration) {
				t0 := time.Now()
				for i := 0; i < sections/16; i++ {
					tle.Critical(c, txBody)
				}
				return sections / 16 * txLoads, time.Since(t0)
			},
			"scheme.empty_cs_ns": func() (int, time.Duration) {
				t0 := time.Now()
				for i := 0; i < sections; i++ {
					tle.Critical(c, empty)
				}
				return sections, time.Since(t0)
			},
			"scheme.mutex_empty_cs_ns": func() (int, time.Duration) {
				t0 := time.Now()
				for i := 0; i < sections; i++ {
					mutex.Critical(c, empty)
				}
				return sections, time.Since(t0)
			},
		})
	})
}
