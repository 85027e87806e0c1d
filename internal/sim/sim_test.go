package sim

import (
	"runtime"
	"testing"
	"time"

	"natle/internal/machine"
	"natle/internal/vtime"
)

func TestOrderingIsGlobalTimeOrder(t *testing.T) {
	e := New(machine.LargeX52(), machine.FillSocketFirst{}, 4, 1)
	e.Slack = 0 // strict ordering for this test
	var order []int
	var last vtime.Time
	for i := 0; i < 4; i++ {
		id := i
		e.Spawn(nil, func(c *Ctx) {
			for j := 0; j < 50; j++ {
				// Distinct per-thread step sizes interleave the clocks.
				c.AdvanceIdle(vtime.Duration(id+1) * vtime.Nanosecond)
				c.Checkpoint()
				if c.Now() < last {
					t.Errorf("time went backwards: %v after %v", c.Now(), last)
				}
				last = c.Now()
				order = append(order, id)
			}
		})
	}
	e.Run()
	if len(order) != 200 {
		t.Fatalf("expected 200 events, got %d", len(order))
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := New(machine.LargeX52(), machine.FillSocketFirst{}, 3, 42)
		var trace []uint64
		for i := 0; i < 3; i++ {
			e.Spawn(nil, func(c *Ctx) {
				for j := 0; j < 100; j++ {
					c.AdvanceIdle(vtime.Duration(1 + c.Intn(100)))
					c.Checkpoint()
					trace = append(trace, uint64(c.ID)<<56|uint64(c.Now()))
				}
			})
		}
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %x vs %x", i, a[i], b[i])
		}
	}
}

func TestSpawnFromRunningThread(t *testing.T) {
	e := New(machine.LargeX52(), machine.FillSocketFirst{}, 2, 7)
	childRan := false
	e.Spawn(nil, func(c *Ctx) {
		var atSpawn vtime.Time
		e.Spawn(c, func(k *Ctx) {
			if k.Now() < atSpawn {
				t.Errorf("child started before parent's spawn completed: %v < %v", k.Now(), atSpawn)
			}
			childRan = true
		})
		atSpawn = c.Now()
		c.WaitOthers(vtime.Microsecond)
	})
	e.Run()
	if !childRan {
		t.Fatal("child thread never ran")
	}
}

func TestPinningPlacement(t *testing.T) {
	p := machine.LargeX52()
	fill := machine.FillSocketFirst{}
	// Threads 0..17 on distinct socket-0 cores; 18..35 reuse them;
	// 36..53 on socket 1.
	for i := 0; i < 18; i++ {
		if got := fill.Place(p, i, 72); got != i {
			t.Errorf("fill.Place(%d) = %d, want %d", i, got, i)
		}
		if got := fill.Place(p, i+18, 72); got != i {
			t.Errorf("fill.Place(%d) = %d, want %d (hyperthread)", i+18, got, i)
		}
		if got := fill.Place(p, i+36, 72); got != i+18 {
			t.Errorf("fill.Place(%d) = %d, want %d (socket 1)", i+36, got, i+18)
		}
	}
	alt := machine.Alternating{}
	if s := p.SocketOfCore(alt.Place(p, 0, 8)); s != 0 {
		t.Errorf("alternating thread 0 on socket %d, want 0", s)
	}
	if s := p.SocketOfCore(alt.Place(p, 1, 8)); s != 1 {
		t.Errorf("alternating thread 1 on socket %d, want 1", s)
	}
}

func TestSiblingDetection(t *testing.T) {
	e := New(machine.LargeX52(), machine.FillSocketFirst{}, 19, 5)
	e.Spawn(nil, func(c *Ctx) { // driver: pinIdx 0 → core 0
		var threads []*Ctx
		for i := 0; i < 18; i++ {
			threads = append(threads, e.Spawn(c, func(k *Ctx) {
				k.AdvanceIdle(vtime.Millisecond)
				k.Checkpoint()
			}))
		}
		// Driver shares core 0 with worker pinIdx 0... workers 1..18
		// occupy cores 0..17; with the driver on core 0, core 0 hosts 2.
		if !threads[0].SiblingActive() {
			t.Error("expected sibling on core 0")
		}
		if threads[5].SiblingActive() {
			t.Error("unexpected sibling on core 5")
		}
		c.WaitOthers(vtime.Microsecond)
	})
	e.Run()
}

func TestPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from Run")
		}
	}()
	e := New(machine.SmallI7(), machine.FillSocketFirst{}, 2, 1)
	e.Spawn(nil, func(c *Ctx) {
		c.AdvanceIdle(vtime.Microsecond)
		c.Checkpoint()
	})
	e.Spawn(nil, func(c *Ctx) { panic("boom") })
	e.Run()
}

// runRecover runs e and returns what Run panicked with, or nil.
func runRecover(e *Engine) (r any) {
	defer func() { r = recover() }()
	e.Run()
	return nil
}

// settledGoroutines waits briefly for exiting goroutines to be reaped
// and returns the count once it reaches want (or the last count seen).
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestCrashUnwindsEveryThread(t *testing.T) {
	base := runtime.NumGoroutine()
	// Threads run in ID order: 0 and 1 park in their first Checkpoint,
	// 2 panics before its own, and 3 has not started yet.
	crashed := New(machine.SmallI7(), machine.FillSocketFirst{}, 4, 1)
	for i := 0; i < 4; i++ {
		crashed.Spawn(nil, func(c *Ctx) {
			for {
				if c.ID == 2 {
					panic("boom")
				}
				c.AdvanceIdle(vtime.Microsecond)
				c.Checkpoint()
			}
		})
	}
	if r := runRecover(crashed); r != "sim thread 2: boom" {
		t.Fatalf("Run panicked with %v, want %q", r, "sim thread 2: boom")
	}
	if n := settledGoroutines(base); n != base {
		t.Errorf("%d goroutines after a crashed Run, want baseline %d", n, base)
	}

	clean := New(machine.SmallI7(), machine.FillSocketFirst{}, 4, 1)
	for i := 0; i < 4; i++ {
		clean.Spawn(nil, func(c *Ctx) {
			c.AdvanceIdle(vtime.Microsecond)
			c.Checkpoint()
		})
	}
	if r := runRecover(clean); r != nil {
		t.Fatalf("clean Run panicked: %v", r)
	}
	if n := settledGoroutines(base); n != base {
		t.Errorf("%d goroutines after a clean Run, want baseline %d", n, base)
	}
}

func TestDeadlockIsReported(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New(machine.SmallI7(), machine.FillSocketFirst{}, 2, 1)
	e.Spawn(nil, func(c *Ctx) {
		c.AdvanceIdle(vtime.Microsecond)
		c.Checkpoint() // thread 1 runs and parks in its Checkpoint
		// Drop the parked thread from the run queue: it stays live but
		// nothing can ever resume it.
		e.heap = e.heap[:0]
	})
	e.Spawn(nil, func(c *Ctx) {
		c.AdvanceIdle(10 * vtime.Microsecond)
		c.Checkpoint()
		t.Error("thread dropped from the run queue was resumed")
	})
	const want = "sim: deadlock — live threads but empty run queue"
	if r := runRecover(e); r != want {
		t.Fatalf("Run panicked with %v, want %q", r, want)
	}
	if n := settledGoroutines(base); n != base {
		t.Errorf("%d goroutines after a deadlocked Run, want baseline %d", n, base)
	}
}
