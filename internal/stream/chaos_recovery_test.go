package stream_test

import (
	"os"
	"reflect"
	"testing"
	"time"

	"pmuleak/internal/covert"
	"pmuleak/internal/faults"
	"pmuleak/internal/stream"
)

// TestChaosKillRecoveryConvergesToBatch is the whole robustness story
// in one test: a chaos-scheduled processor panic quarantines the
// stream mid-capture, the supervisor's recovery loop restores the
// latest checkpoint into a fresh receiver, replays the remaining
// samples, and the final demodulation is byte-identical to the
// uninterrupted batch run — under a faulty capture (drops, gain
// steps), with deterministic chaos seeds.
func TestChaosKillRecoveryConvergesToBatch(t *testing.T) {
	p := prepCovert(t, true, 1)
	defer p.Cap.Recycle()
	batch := covert.Demodulate(p.Cap, p.RXCfg)

	chaos, err := faults.NewChaos(faults.ChaosConfig{Kill: true, KillFrac: 0.6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	const chunkSize = 8192
	total := (len(p.Cap.IQ) + chunkSize - 1) / chunkSize
	dir := t.TempDir()
	d := stream.NewDaemon(2, stream.WithCheckpoints(dir, 1))
	const name = "chaos_conv"

	rx := freshCovert(t, p.RXCfg, p.Cap)
	recoveries := 0
	for attempt := 0; ; attempt++ {
		if attempt > 3 {
			t.Fatal("stream did not converge within the recovery budget")
		}
		consumed := rx.Consumed()
		var proc stream.Processor = rx
		if attempt == 0 {
			proc = chaos.Processor(1, total, rx) // schedules exactly one panic
		}
		sv, err := d.Supervise(name, proc, 4, stream.NewSliceSource(p.Cap.IQ[consumed:], chunkSize), 2*time.Second)
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		sv.Wait()
		if !sv.Quarantined() {
			break
		}
		recoveries++
		fresh := freshCovert(t, p.RXCfg, p.Cap)
		switch rerr := stream.RestoreCheckpoint(dir, name, fresh); {
		case rerr == nil:
			if fresh.Consumed() == 0 || fresh.Consumed() >= len(p.Cap.IQ) {
				t.Fatalf("restored Consumed = %d, want mid-stream (capture is %d samples)",
					fresh.Consumed(), len(p.Cap.IQ))
			}
		case os.IsNotExist(rerr):
			// Killed before the first checkpoint: start over from zero.
		default:
			t.Fatalf("restore after quarantine: %v", rerr)
		}
		rx = fresh
	}
	if recoveries == 0 {
		t.Fatal("chaos kill never fired — the test exercised nothing")
	}
	d.Drain()
	if got := rx.Finalize(); !reflect.DeepEqual(got, batch) {
		t.Fatal("recovered stream diverged from the uninterrupted batch run")
	}
}
