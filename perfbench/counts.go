package main

import (
	"natle/internal/cache"
	"natle/internal/htm"
	"natle/internal/tle"
)

// simCounts sets the htm and cache per-layer counts.
func (p *phase) simCounts(h htm.Stats, c cache.Stats) {
	p.layer["htm.starts"] = float64(h.Starts)
	p.layer["htm.commit_frac"] = ratio(float64(h.Commits), float64(h.Starts))
	p.layer["htm.aborts_conflict"] = float64(h.Aborts[htm.CodeConflict])
	p.layer["htm.aborts_capacity"] = float64(h.Aborts[htm.CodeCapacity])
	p.layer["htm.aborts_lockheld"] = float64(h.Aborts[htm.CodeLockHeld])
	acc := c.L1Hits + c.L3Hits + c.RemoteHits + c.DRAMAccesses
	p.layer["cache.accesses"] = float64(acc)
	p.layer["cache.remote_frac"] = ratio(float64(c.RemoteHits), float64(acc))
	p.layer["cache.remote_invals"] = float64(c.RemoteInvals)
}

// tleCounts sets the elision counts of the workload's scheme (the
// simulated TLE, NATLE's inner TLE, or native-tle).
func (p *phase) tleCounts(t tle.Stats) {
	p.layer["tle.attempts_per_op"] = ratio(float64(t.Attempts), float64(t.Ops))
	p.layer["tle.commit_frac"] = ratio(float64(t.Commits), float64(t.Attempts))
	p.layer["tle.aborts"] = float64(t.TotalAborts())
	p.layer["tle.fallbacks"] = float64(t.Fallbacks)
}
