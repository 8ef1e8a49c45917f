package main

import (
	"testing"

	"pmuleak/internal/laptop"
	"pmuleak/internal/telemetry"
)

// TestServeChaosClassesVerify runs the serve loop CI's chaos-smoke job
// runs — feedStream's quarantine, checkpoint restore and replay — once
// per chaos class, and requires each run to verify byte-identical to
// the one-chunk receive and the class's fault counter to have moved, so
// a class that injects nothing fails here.
func TestServeChaosClassesVerify(t *testing.T) {
	for _, tc := range []struct{ class, counter string }{
		{"stall", "faults.chaos.stalls"},
		{"slow", "faults.chaos.slows"},
		{"kill", "faults.chaos.kills"},
		{"corrupt", "faults.chaos.corruptions"},
	} {
		t.Run(tc.class, func(t *testing.T) {
			before := telemetry.Capture().Counters[tc.counter]
			code := runServe(laptop.Reference(), 1, 0.10, serveOptions{
				streams:    2,
				workers:    2,
				chunk:      8192,
				queue:      4,
				kind:       "mixed",
				verify:     true,
				checkpoint: t.TempDir(),
				ckptEvery:  4,
				chaos:      tc.class,
				chaosSeed:  7,
			})
			if code != 0 {
				t.Fatalf("-chaos %s exited %d, want 0", tc.class, code)
			}
			if after := telemetry.Capture().Counters[tc.counter]; after == before {
				t.Fatalf("-chaos %s left %s at %d: the class injected nothing", tc.class, tc.counter, after)
			}
		})
	}
}
