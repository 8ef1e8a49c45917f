package covert

import (
	"fmt"
	"reflect"
	"testing"

	"pmuleak/internal/emchannel"
	"pmuleak/internal/faults"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/xrand"
)

// linkCapture runs the transmit -> emanate -> propagate -> acquire
// front half of runLink on prof and returns the capture plus the
// receiver config tuned to the profile, without demodulating. The
// demodulation differentials reuse one capture across parallelism
// levels and chunkings so the input bits are literally identical.
func linkCapture(prof laptop.Profile, payloadBits int, seed int64) (*sdr.Capture, RXConfig) {
	sys := laptop.NewSystem(prof, seed)
	defer sys.Close()

	txCfg := DefaultTXConfig(prof.DefaultSleepPeriod)
	payload := xrand.New(seed + 1000).Bits(payloadBits)
	frame := EncodeFrame(payload, txCfg)
	SpawnTransmitter(sys.Kernel(), frame, txCfg)

	horizon := AirtimeEstimate(frame, txCfg, prof.Kernel)
	sys.Run(horizon)
	plan := sys.DefaultPlan()
	field := sys.Emanations(horizon, plan)

	rng := xrand.New(seed + 2000)
	field = emchannel.Apply(field, plan.SampleRate, emchannel.DefaultConfig(), rng)

	sdrCfg := sdr.DefaultConfig()
	sdrCfg.Antenna = sdr.CoilProbe
	cap := sdr.Acquire(field, plan.CenterFreqHz, sdrCfg, rng.Fork())

	rxCfg := DefaultRXConfig()
	rxCfg.ExpectedF0 = prof.VRM.SwitchingFreqHz
	rxCfg.MinBitPeriod = txCfg.BitPeriod() / 2
	return cap, rxCfg
}

// TestDemodulateFusedEquivalence is the receiver-level differential for
// the fused DSP kernels, across the fault axis the robustness
// experiment exercises: for a clean capture and for deterministically
// faulted copies of it (drops, clock error, gain steps, saturation),
// the entire Demod — traces, bit starts, decoded bits, quality — must
// be identical serial and parallel. The receiver's decisions consume
// STFT magnitudes and Welch PSDs, which the kernel suite proves
// bit-identical to serial oracles, so reflect.DeepEqual is the bar.
func TestDemodulateFusedEquivalence(t *testing.T) {
	faultConfigs := []struct {
		name string
		cfg  faults.Config
	}{
		{"clean", faults.Config{}},
		{"drops", faults.Config{DropRatePerS: 8}},
		{"clock", faults.Config{ClockPPM: 25, DriftPPMPerS: 2}},
		{"analog", faults.Config{GainStepRatePerS: 4, SaturationRatePerS: 4}},
	}
	for fi, fc := range faultConfigs {
		cap, rxCfg := linkCapture(laptop.Reference(), 64, 77+int64(fi))
		faults.MustNew(fc.cfg, 99).Apply(cap)

		var want *Demod
		for _, par := range []int{1, 4} {
			cfg := rxCfg
			cfg.Parallelism = par
			d := Demodulate(cap, cfg)
			if want == nil {
				if !d.CarrierFound {
					t.Fatalf("%s: carrier lost in serial demodulation", fc.name)
				}
				want = d
				continue
			}
			if !reflect.DeepEqual(d, want) {
				t.Fatalf("%s par=%d: demodulation differs from serial:\n%s",
					fc.name, par, demodDiff(d, want))
			}
		}
	}
}

// demodDiff names the first field that differs, so a failure reports
// "Conv diverges at sample 812" instead of two megabyte dumps.
func demodDiff(got, want *Demod) string {
	if got.CarrierFound != want.CarrierFound {
		return fmt.Sprintf("CarrierFound %v vs %v", got.CarrierFound, want.CarrierFound)
	}
	for i := range want.Y {
		if i >= len(got.Y) || got.Y[i] != want.Y[i] {
			return fmt.Sprintf("Y diverges at sample %d", i)
		}
	}
	for i := range want.Conv {
		if i >= len(got.Conv) || got.Conv[i] != want.Conv[i] {
			return fmt.Sprintf("Conv diverges at sample %d", i)
		}
	}
	if !reflect.DeepEqual(got.Starts, want.Starts) {
		return fmt.Sprintf("Starts %v vs %v", got.Starts, want.Starts)
	}
	if !reflect.DeepEqual(got.Bits, want.Bits) {
		return "decoded bits differ"
	}
	return "difference outside Y/Conv/Starts/Bits (see Quality/Powers)"
}
