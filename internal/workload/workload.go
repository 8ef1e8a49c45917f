// Package workload provides canned activity generators for the
// simulated target: the micro-benchmark of Fig. 1 and interactive
// applications. Experiments use these to populate the victim machine
// with realistic activity beyond the attack processes themselves.
package workload

import (
	"fmt"

	"pmuleak/internal/kernel"
	"pmuleak/internal/sim"
	"pmuleak/internal/xrand"
)

// Microbench spawns the paper's Fig. 1 benchmark: cycles of t1 activity
// followed by t2 idleness.
func Microbench(k *kernel.Kernel, active, idle sim.Time, cycles int) {
	if active <= 0 || idle <= 0 || cycles <= 0 {
		panic(fmt.Sprintf("workload: bad microbench parameters %v/%v x%d",
			active, idle, cycles))
	}
	k.Spawn("microbench", func(p *kernel.Proc) {
		for i := 0; i < cycles; i++ {
			p.Busy(active)
			p.Sleep(idle)
		}
	})
}

// BurstyConfig parameterizes an interactive-application workload.
type BurstyConfig struct {
	// BurstMin/BurstMax bound each activity burst.
	BurstMin, BurstMax sim.Time
	// GapMean is the mean idle time between bursts (exponential).
	GapMean sim.Time
}

// DefaultBursty models a foreground application reacting to events.
func DefaultBursty() BurstyConfig {
	return BurstyConfig{
		BurstMin: 2 * sim.Millisecond,
		BurstMax: 30 * sim.Millisecond,
		GapMean:  150 * sim.Millisecond,
	}
}

// Bursty spawns an event-driven application: exponential idle gaps
// between uniformly sized activity bursts.
func Bursty(k *kernel.Kernel, cfg BurstyConfig, seed int64) {
	if cfg.BurstMin <= 0 || cfg.BurstMax < cfg.BurstMin || cfg.GapMean <= 0 {
		panic("workload: bad bursty parameters")
	}
	rng := xrand.New(seed)
	k.Spawn("bursty-app", func(p *kernel.Proc) {
		for {
			p.Sleep(sim.Time(rng.Exp(float64(cfg.GapMean))))
			p.Busy(sim.Time(rng.Uniform(float64(cfg.BurstMin), float64(cfg.BurstMax))))
		}
	})
}
