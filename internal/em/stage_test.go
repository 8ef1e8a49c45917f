package em

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pmuleak/internal/sim"
	"pmuleak/internal/vrm"
	"pmuleak/internal/xrand"
)

// stageCase is a 240 kS/s keystroke-style render long enough for many
// watermark hand-overs.
func stageCase() (Config, sim.Time, []vrm.Pulse) {
	cfg := DefaultConfig()
	cfg.SampleRate = 240e3
	cfg.CenterFreqHz = cfg.SwitchingFreqHz - 60e3
	cfg.Harmonics = 1
	horizon := 400 * sim.Millisecond
	pulses := fullLoadPulses(cfg, horizon, 20/cfg.SwitchingFreqHz)
	for i := range pulses {
		pulses[i].Charge *= 1 + 0.5*math.Sin(float64(i)/500)
	}
	return cfg, horizon, pulses
}

// TestRenderStagesEveryPieceInOrder: the stage sees consecutive pieces
// that tile the output, none longer than renderBlock, each already
// rendered; what it writes in place is what Render leaves in out.
func TestRenderStagesEveryPieceInOrder(t *testing.T) {
	cfg, horizon, pulses := stageCase()
	ref := render(replay(pulses), horizon, cfg, xrand.New(12))
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			out := make([]complex128, len(ref))
			next, pieces := 0, 0
			stage := func(piece []complex128) {
				lo := len(out) - cap(piece) // offset of piece within out
				if lo != next {
					t.Fatalf("piece %d starts at %d, want %d", pieces, lo, next)
				}
				if len(piece) == 0 || len(piece) > renderBlock {
					t.Fatalf("piece %d has %d samples", pieces, len(piece))
				}
				for i, v := range piece {
					if v != ref[lo+i] {
						t.Fatalf("piece %d sample %d staged as %v before it was rendered (%v)", pieces, lo+i, v, ref[lo+i])
					}
					piece[i] = 2 * v
				}
				next += len(piece)
				pieces++
			}
			Render(out, replay(pulses), horizon, cfg, xrand.New(12), stage)
			if next != len(out) {
				t.Fatalf("stage saw %d of %d samples", next, len(out))
			}
			if pieces < len(out)/renderBlock {
				t.Fatalf("%d pieces for %d samples", pieces, len(out))
			}
			for i := range ref {
				if out[i] != 2*ref[i] {
					t.Fatalf("sample %d = %v, want the stage's %v", i, out[i], 2*ref[i])
				}
			}
		})
	}
}

// TestRenderStagePanic: a panicking stage re-panics on the caller, and
// the walk has exited when Render returns.
func TestRenderStagePanic(t *testing.T) {
	cfg, horizon, pulses := stageCase()
	for _, procs := range []int{1, 4} {
		for _, at := range []int{0, 3} {
			name := fmt.Sprintf("gomaxprocs=%d,piece=%d", procs, at)
			t.Run(name, func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				// A slow walk, so one still running when the stage's
				// panic leaves Render shows.
				var walked atomic.Bool
				train := func(emit func(vrm.Pulse)) {
					for i, p := range pulses {
						emit(p)
						if i%10000 == 0 {
							time.Sleep(time.Millisecond)
						}
					}
					walked.Store(true)
				}
				before := runtime.NumGoroutine()
				got := func() (got any) {
					defer func() { got = recover() }()
					calls := 0
					stage := func([]complex128) {
						if calls == at {
							panic("stage boom")
						}
						calls++
					}
					out := make([]complex128, cfg.SampleCount(horizon))
					Render(out, train, horizon, cfg, xrand.New(3), stage)
					return nil
				}()
				if got != "stage boom" {
					t.Fatalf("Render panicked with %v, want the stage's panic", got)
				}
				if !walked.Load() {
					t.Fatal("the walk was still running when Render returned")
				}
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after Render, want %d", runtime.NumGoroutine(), before)
					}
					runtime.Gosched()
				}
			})
		}
	}
}

func TestRenderRejectsWrongBuffer(t *testing.T) {
	cfg := DefaultConfig()
	horizon := sim.Millisecond
	defer func() {
		if recover() == nil {
			t.Fatal("Render accepted a buffer of the wrong length")
		}
	}()
	Render(make([]complex128, cfg.SampleCount(horizon)+1), replay(nil), horizon, cfg, xrand.New(1), nil)
}
