package experiments

import (
	"fmt"

	"pmuleak/internal/core"
	"pmuleak/internal/faults"
	"pmuleak/internal/sweep"
)

// ---------------------------------------------------------------------
// Robustness — acquisition-fault degradation curves (measured
// extension). The paper's receiver works in the field because §IV-B2's
// batch processing rides out messy acquisition; this experiment
// quantifies exactly how much mess it survives by sweeping the fault
// injector's intensity (USB-overrun drop rate × clock drift × AGC gain
// steps) and tracing BER, throughput, payload survival (the
// Hamming(7,4)+interleaving knee), and keystroke F1.

// RobustnessPoint is one fault-intensity cell of the covert-channel
// degradation grid, averaged over the scale's runs.
type RobustnessPoint struct {
	DropRatePerS float64
	DriftPPM     float64
	GainStepDB   float64
	// PlainBER and ResyncBER are the channel error rates of the legacy
	// receiver and the self-healing receiver (per-batch resync +
	// bounded carrier re-acquisition) under the same fault schedule.
	PlainBER  float64
	ResyncBER float64
	// TR is the mean transmit rate (bps) — fixed by the transmitter,
	// reported for the degradation curve's x-axis context.
	TR float64
	// PayloadSaved is the fraction of runs in which
	// Hamming(7,4)+interleaving still delivered the payload error-free
	// through the resyncing receiver.
	PayloadSaved float64
	// Drops/Resyncs/Retries are per-cell totals of realized fault events
	// and receiver healing actions across the runs.
	Drops, Resyncs, Retries int
}

// RobustnessKeyPoint is one cell of the keystroke-detection arm: the
// same gain-step fault intensity seen by the plain detector and the
// gap-aware (per-block normalized) detector.
type RobustnessKeyPoint struct {
	GainStepDB float64
	GainSteps  int
	PlainF1    float64
	GapAwareF1 float64
}

// RobustnessResult carries the full degradation surface.
type RobustnessResult struct {
	DropRates []float64
	DriftPPMs []float64
	GainDBs   []float64
	// Covert is the grid in (drift, gain, drop) order: the point for
	// (DriftPPMs[i], GainDBs[j], DropRates[k]) is
	// Covert[(i*len(GainDBs)+j)*len(DropRates)+k].
	Covert []RobustnessPoint
	Keylog []RobustnessKeyPoint
	// KneeDropRate is the first drop rate (along the drift=0, gain=0
	// axis) at which ECC no longer saves every payload; -1 if the
	// payload survived the whole sweep.
	KneeDropRate float64
}

// Row returns the drop-rate curve at the given drift/gain indices.
func (r RobustnessResult) Row(drift, gain int) []RobustnessPoint {
	base := (drift*len(r.GainDBs) + gain) * len(r.DropRates)
	return r.Covert[base : base+len(r.DropRates)]
}

// Monotone reports whether the resync receiver's BER is non-decreasing
// along the drop-rate curve at the given drift/gain indices — the shape
// a degradation curve must have at a fixed seed.
func (r RobustnessResult) Monotone(drift, gain int) bool {
	row := r.Row(drift, gain)
	for i := 1; i < len(row); i++ {
		if row[i].ResyncBER < row[i-1].ResyncBER {
			return false
		}
	}
	return true
}

// gainStepRatePerS is the AGC re-gain event rate used whenever the
// gain-step axis is nonzero: a few events per covert capture, tens per
// multi-second keylog session.
const gainStepRatePerS = 100

// Robustness sweeps the fault injector over the covert channel and the
// keystroke detector. Every cell derives its seeds from its grid index,
// so the surface is reproducible and identical at every -jobs setting.
func Robustness(seed int64, scale Scale) RobustnessResult {
	defer expSpan("robustness").End()
	res := RobustnessResult{
		DropRates:    []float64{0, 100, 300, 800},
		DriftPPMs:    []float64{0, 200},
		GainDBs:      []float64{0, 6},
		KneeDropRate: -1,
	}

	nCells := len(res.DriftPPMs) * len(res.GainDBs) * len(res.DropRates)
	res.Covert = sweep.Map(nCells, func(c int) RobustnessPoint {
		k := c % len(res.DropRates)
		j := c / len(res.DropRates) % len(res.GainDBs)
		i := c / (len(res.DropRates) * len(res.GainDBs))
		pt := RobustnessPoint{
			DropRatePerS: res.DropRates[k],
			DriftPPM:     res.DriftPPMs[i],
			GainStepDB:   res.GainDBs[j],
		}
		fcfg := faults.Config{
			DropRatePerS:  pt.DropRatePerS,
			ClockPPM:      pt.DriftPPM,
			DriftPPMPerS:  pt.DriftPPM / 2,
			GainStepMaxDB: pt.GainStepDB,
		}
		if pt.GainStepDB > 0 {
			fcfg.GainStepRatePerS = gainStepRatePerS
		}
		saved := 0
		for r := 0; r < scale.Runs; r++ {
			tb := core.NewTestbed(core.WithSeed(seed + int64(c*scale.Runs+r)))
			base := core.CovertConfig{
				PayloadBits: scale.PayloadBits,
				Interleave:  7,
				Faults:      fcfg,
			}
			plain := tb.RunCovert(base)
			healed := base
			healed.RXResync = true
			healed.RXCarrierRetries = 3
			resync := tb.RunCovert(healed)

			pt.PlainBER += plain.ErrorRate()
			pt.ResyncBER += resync.ErrorRate()
			pt.TR += resync.TransmitRate
			pt.Drops += resync.Faults.Drops
			pt.Resyncs += resync.Demod.Quality.Resyncs
			pt.Retries += resync.Demod.Quality.Retries
			if resync.PayloadOK && resync.PayloadBER == 0 {
				saved++
			}
		}
		n := float64(scale.Runs)
		pt.PlainBER /= n
		pt.ResyncBER /= n
		pt.TR /= n
		pt.PayloadSaved = float64(saved) / n
		return pt
	})

	// The ECC knee: walk the clean-drift, clean-gain drop axis.
	for _, pt := range res.Row(0, 0) {
		if pt.PayloadSaved < 1 {
			res.KneeDropRate = pt.DropRatePerS
			break
		}
	}

	// Keystroke arm: gain-step magnitude is the axis that stresses the
	// detector's global threshold; each cell scores the plain and the
	// gap-aware detector against the same damaged capture.
	gainDBs := []float64{0, 6, 12}
	res.Keylog = sweep.Map(len(gainDBs), func(i int) RobustnessKeyPoint {
		fcfg := faults.Config{}
		if gainDBs[i] > 0 {
			fcfg = faults.Config{GainStepRatePerS: 2, GainStepMaxDB: gainDBs[i]}
		}
		run := func(gapAware bool) (float64, int) {
			tb := core.NewTestbed(core.WithSeed(seed + 7000 + int64(i)))
			kr := tb.RunKeylog(core.KeylogConfig{
				Words:    scale.Words,
				Faults:   fcfg,
				GapAware: gapAware,
			})
			return keystrokeF1(kr), kr.Faults.GainSteps
		}
		plainF1, steps := run(false)
		gapF1, _ := run(true)
		return RobustnessKeyPoint{
			GainStepDB: gainDBs[i],
			GainSteps:  steps,
			PlainF1:    plainF1,
			GapAwareF1: gapF1,
		}
	})
	return res
}

// keystrokeF1 folds a run's character score into a single F1 value:
// precision = matched/detected, recall = matched/truth, so
// F1 = 2*matched/(truth+detected).
func keystrokeF1(kr *core.KeylogResult) float64 {
	denom := kr.Char.Truth + kr.Char.Detected
	if denom == 0 {
		return 0
	}
	return 2 * float64(kr.Char.Matched) / float64(denom)
}

// String renders one covert grid point compactly.
func (p RobustnessPoint) String() string {
	return fmt.Sprintf("drop %3.0f/s drift %3.0fppm gain %2.0fdB -> BER %.1e (plain %.1e) payload saved %3.0f%%",
		p.DropRatePerS, p.DriftPPM, p.GainStepDB, p.ResyncBER, p.PlainBER, 100*p.PayloadSaved)
}
