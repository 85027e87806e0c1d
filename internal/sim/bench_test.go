package sim

import (
	"testing"

	"natle/internal/machine"
	"natle/internal/vtime"
)

// BenchmarkHandoff prices one switch between simulated threads: two
// threads with zero slack step their clocks in lockstep, so every
// Checkpoint yields to the other. The handoffs/op metric confirms it.
func BenchmarkHandoff(b *testing.B) {
	e := New(machine.LargeX52(), nil, 2, 1)
	e.Slack = 0
	last, switches := -1, 0
	for i := 0; i < 2; i++ {
		e.Spawn(nil, func(c *Ctx) {
			for j := c.ID; j < b.N; j += 2 {
				c.AdvanceIdle(vtime.Nanosecond)
				c.Checkpoint()
				if last != c.ID {
					last = c.ID
					switches++
				}
			}
		})
	}
	b.ResetTimer()
	e.Run()
	b.ReportMetric(float64(switches)/float64(b.N), "handoffs/op")
}

// BenchmarkCheckpointNoYield prices the Checkpoint fast path: with one
// thread the run queue is always empty and nothing ever yields.
func BenchmarkCheckpointNoYield(b *testing.B) {
	e := New(machine.LargeX52(), nil, 1, 1)
	e.Spawn(nil, func(c *Ctx) {
		for j := 0; j < b.N; j++ {
			c.AdvanceIdle(vtime.Nanosecond)
			c.Checkpoint()
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkSpawnRun prices thread creation and teardown: one engine
// with 72 empty threads (the large machine's full complement) per op.
func BenchmarkSpawnRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := New(machine.LargeX52(), machine.FillSocketFirst{}, 72, 1)
		for j := 0; j < 72; j++ {
			e.Spawn(nil, func(*Ctx) {})
		}
		e.Run()
	}
}
