package experiments

import (
	"math"

	"pmuleak/internal/campaign"
	"pmuleak/internal/core"
	"pmuleak/internal/covert"
	"pmuleak/internal/faults"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sweep"
	"pmuleak/internal/xrand"
)

// ---------------------------------------------------------------------
// Fleet — population-scale campaign (measured extension). The paper
// measures six laptops on a bench; this experiment asks what the attack
// surface looks like across an organization's whole fleet: a million
// heterogeneous (laptop model × background load × typist × distance ×
// acquisition-fault severity) cells, reduced to population quantiles.
//
// Full-fidelity simulation of a million covert runs is off the table
// (each run costs tens of milliseconds), so the experiment is anchored:
// a handful of full RunCovert/RunKeylog measurements calibrate a
// per-cell analytic surrogate, and internal/campaign then streams the
// million-cell population through it with O(blocks) reducer memory.
// The anchors carry the simulator's fidelity; the surrogate carries the
// population structure.
//
// The surrogate routes every effect through one effective-SNR scalar:
//
//	snr(cell) = anchorSNR[model] × (d_anchor/d)² × load × shadow / sev
//	BER(cell) = ½·erfc(√(snr/2))        (coherent OOK decision error)
//	F1(cell)  = anchorF1^(snr_ref/snr)  (monotone, pinned at the anchor)
//
// anchorSNR inverts the measured per-model BER through the same erfc
// law; the severity divisors invert the measured BER of the fault-
// injected anchors (internal/faults, the Robustness experiment's
// schedule shapes), so the degradation grid is calibrated, not assumed.

// fleetNominalDistM is the population's reference attacker placement:
// a cell at this distance sees exactly its model's anchor SNR. The
// anchors themselves are measured near-field (the Table II placement,
// where every model has a bounded, differentiating substitution BER);
// the nominal distance says where in the fleet that fidelity is pinned.
const fleetNominalDistM = 2.0

// fleetPathExp is the SNR-vs-distance exponent. The measured channel
// (Table III) degrades shallowly with distance because the receiver
// adapts its rate; the fleet model keeps transmitters at a fixed rate,
// so the exponent sits between the rate-adaptive shallow slope and the
// free-space field decay.
const fleetPathExp = 1.2

// fleetBERFloor clamps the surrogate BER away from zero. Physically a
// "link so good no error occurs at any feasible payload"; numerically
// it bounds the quantile sketch's bucket range, which is what keeps
// reducer state independent of the population size.
const fleetBERFloor = 1e-7

// fleetAnchorBERClamp bounds a measured anchor BER into the invertible
// range of the erfc law: an error-free anchor run still yields a large
// finite SNR rather than +Inf.
func fleetAnchorBERClamp(ber float64) float64 {
	return math.Min(math.Max(ber, 1e-4), 0.45)
}

// berToSNR inverts ber = ½·erfc(√(snr/2)).
func berToSNR(ber float64) float64 {
	x := math.Erfcinv(2 * ber)
	return 2 * x * x
}

// FleetAnchor is one laptop model's full-fidelity calibration point.
type FleetAnchor struct {
	Model string
	BER   float64
	TR    float64
	SNR   float64 // effective SNR inverted from the clamped BER
}

// FleetSeverityAnchor is one acquisition-fault severity level: its
// injector configuration, the measured BER of the self-healing receiver
// under it, and the SNR divisor the surrogate applies for it.
type FleetSeverityAnchor struct {
	Name      string
	Faults    faults.Config
	BER       float64
	SNRFactor float64 // ≥ 1; clean = 1 by construction
}

// FleetGroup is one sub-population's streamed statistics.
type FleetGroup struct {
	Name string
	BER  campaign.MeanVar
	F1   campaign.MeanVar
}

// FleetResult carries the campaign's reduced state. Everything here is
// a pure function of (seed, scale, cells): byte-identical rendering at
// every worker count is the campaign contract.
type FleetResult struct {
	Plan       campaign.Plan
	Anchors    []FleetAnchor
	Severities []FleetSeverityAnchor
	KeyF1      float64 // keylogging anchor at the same placement

	BER        *campaign.Sketch // population BER quantiles
	F1         *campaign.Hist   // population keystroke-F1 distribution
	Pop        campaign.MeanVar // population BER moments
	PerModel   []FleetGroup
	PerSev     []FleetGroup
	Worst      []campaign.Item // highest-BER cells, by stable cell index
	StateBytes int             // summed per-block reducer state
}

// fleetBlock is the per-block reducer bundle. One lives per block of
// the fixed partition; peak memory is blocks × sizeof(this), not cells.
type fleetBlock struct {
	ber   *campaign.Sketch
	f1    *campaign.Hist
	pop   campaign.MeanVar
	model []campaign.MeanVar
	sev   []campaign.MeanVar
	sevF1 []campaign.MeanVar
	worst *campaign.TopK
}

func newFleetBlock(models, sevs int) *fleetBlock {
	return &fleetBlock{
		ber:   campaign.NewSketch(0.02),
		f1:    campaign.NewHist(0, 1, 64),
		model: make([]campaign.MeanVar, models),
		sev:   make([]campaign.MeanVar, sevs),
		sevF1: make([]campaign.MeanVar, sevs),
		worst: campaign.NewTopK(8),
	}
}

func (b *fleetBlock) merge(o *fleetBlock) {
	b.ber.Merge(o.ber)
	b.f1.Merge(o.f1)
	b.pop.Merge(o.pop)
	for i := range b.model {
		b.model[i].Merge(o.model[i])
	}
	for i := range b.sev {
		b.sev[i].Merge(o.sev[i])
		b.sevF1[i].Merge(o.sevF1[i])
	}
	b.worst.Merge(o.worst)
}

func (b *fleetBlock) stateBytes() int {
	return b.ber.StateBytes() + b.f1.StateBytes() +
		16*(1+len(b.model)+2*len(b.sev)) + 16*8
}

// fleetSeverities is the degradation grid: the Robustness experiment's
// fault axes collapsed to four severity levels an IT fleet would
// actually span (pristine bench, light office, busy USB bus, failing
// acquisition chain).
func fleetSeverities() []FleetSeverityAnchor {
	return []FleetSeverityAnchor{
		{Name: "clean", Faults: faults.Config{}},
		{Name: "light", Faults: faults.Config{
			DropRatePerS: 100, ClockPPM: 50, DriftPPMPerS: 25}},
		{Name: "moderate", Faults: faults.Config{
			DropRatePerS: 300, ClockPPM: 200, DriftPPMPerS: 100,
			GainStepRatePerS: gainStepRatePerS, GainStepMaxDB: 3}},
		{Name: "heavy", Faults: faults.Config{
			DropRatePerS: 800, ClockPPM: 400, DriftPPMPerS: 200,
			GainStepRatePerS: gainStepRatePerS, GainStepMaxDB: 6}},
	}
}

// Fleet runs the population campaign. cells ≤ 0 falls back to the
// scale's population. Jobs are inherited from the sweep pool's process
// default, so paperbench -jobs governs the anchors and the campaign
// alike.
func Fleet(seed int64, scale Scale, cells int64) FleetResult {
	defer expSpan("fleet").End()
	if cells <= 0 {
		cells = scale.Cells
	}
	if cells <= 0 {
		cells = 1 << 20
	}

	// ---- Anchors: full-fidelity runs through the real pipeline, at
	// the near-field Table II placement where every model's channel is
	// operational and the substitution BER is bounded and model-
	// differentiating. Each is averaged over scale.Runs seeds, exactly
	// the TableII pooling, flattened onto one sweep so -jobs fans the
	// whole anchor grid out.
	profiles := laptop.Profiles()
	anchorRuns := sweep.Map(len(profiles)*scale.Runs, func(c int) covert.Measurement {
		i, r := c/scale.Runs, c%scale.Runs
		tb := core.NewTestbed(
			core.WithLaptop(profiles[i]),
			core.WithSeed(seed+int64(10*i+r)),
		)
		return tb.RunCovert(core.CovertConfig{PayloadBits: scale.PayloadBits}).Measurement
	})
	anchors := make([]FleetAnchor, len(profiles))
	for i, prof := range profiles {
		avg := covert.Average(anchorRuns[i*scale.Runs : (i+1)*scale.Runs])
		anchors[i] = FleetAnchor{Model: prof.Model, BER: avg.BER(), TR: avg.TransmitRate}
		anchors[i].SNR = berToSNR(fleetAnchorBERClamp(anchors[i].BER))
	}

	// Severity anchors replay the reference laptop's transmitter trace
	// (faults are injected receiver-side, into the finished capture) with the
	// self-healing receiver, matching the Robustness experiment's setup.
	sevs := fleetSeverities()
	sevBERs := sweep.Map(len(sevs)*scale.Runs, func(c int) float64 {
		i, r := c/scale.Runs, c%scale.Runs
		tb := core.NewTestbed(core.WithSeed(seed + 1000 + int64(r)))
		res := tb.RunCovert(core.CovertConfig{
			PayloadBits:      scale.PayloadBits,
			Interleave:       7,
			Faults:           sevs[i].Faults,
			RXResync:         true,
			RXCarrierRetries: 3,
		})
		// The total error rate (substitutions + insertions + deletions),
		// not the substitution BER: acquisition faults mostly shred the
		// stream's alignment, and that is exactly the damage the
		// severity axis models.
		return res.ErrorRate()
	})
	cleanBER := 0.0
	for r := 0; r < scale.Runs; r++ {
		cleanBER += sevBERs[r]
	}
	cleanBER /= float64(scale.Runs)
	cleanSNR := berToSNR(fleetAnchorBERClamp(cleanBER))
	for i := range sevs {
		var ber float64
		for r := 0; r < scale.Runs; r++ {
			ber += sevBERs[i*scale.Runs+r]
		}
		ber /= float64(scale.Runs)
		sevs[i].BER = ber
		// The divisor is the SNR loss the measured degradation implies
		// under the same erfc law. Severity levels are ordered by
		// construction, so the divisors are clamped monotone: a noisy
		// single-level measurement can never make a harsher fault level
		// HELP the attacker.
		f := cleanSNR / berToSNR(fleetAnchorBERClamp(ber))
		if i == 0 {
			f = 1
		} else if f < sevs[i-1].SNRFactor {
			f = sevs[i-1].SNRFactor
		}
		sevs[i].SNRFactor = f
	}

	// Keylogging anchor at the same near-field placement pins the F1
	// curve's fixed point.
	ktb := core.NewTestbed(core.WithSeed(seed + 2000))
	keyF1 := keystrokeF1(ktb.RunKeylog(core.KeylogConfig{Words: scale.Words}))
	if keyF1 <= 0 || keyF1 >= 1 {
		keyF1 = math.Min(math.Max(keyF1, 0.05), 0.99)
	}

	// ---- Population mixes (all heavy-headed Zipf, per the fleet
	// framing: a few dominant models/workloads, a long tail). The
	// pickers are stateless CDFs (xrand.Zipf), so blocks share them
	// without any cross-block state.
	modelMix := xrand.NewZipf(len(profiles), 1.1)
	loadMix := xrand.NewZipf(4, 1.0)
	typistMix := xrand.NewZipf(3, 1.2)
	sevMix := xrand.NewZipf(len(sevs), 1.5) // most machines near-clean
	loadFactor := []float64{1.0, 0.85, 0.65, 0.45}
	typistFactor := []float64{1.0, 0.92, 0.8}

	anchorSNR := make([]float64, len(anchors))
	for i, a := range anchors {
		anchorSNR[i] = a.SNR
	}
	refSNR := anchorSNR[0]
	sevDiv := make([]float64, len(sevs))
	for i, s := range sevs {
		sevDiv[i] = s.SNRFactor
	}

	// ---- The campaign: stream the population through the surrogate. ----
	ccfg := campaign.Config{Cells: cells, Seed: seed}
	states := campaign.Run(ccfg, func(blk campaign.Block) *fleetBlock {
		fb := newFleetBlock(len(anchorSNR), len(sevDiv))
		for i := blk.Lo; i < blk.Hi; i++ {
			rng := blk.Rng(i)
			m := modelMix.Pick(rng.Float64())
			wl := loadMix.Pick(rng.Float64())
			ty := typistMix.Pick(rng.Float64())
			sv := sevMix.Pick(rng.Float64())
			d := 0.5 + rng.Exp(0.9)
			if d > 4 {
				d = 4
			}
			shadow := math.Exp(rng.Normal(0, 0.6))

			snr := anchorSNR[m] * math.Pow(fleetNominalDistM/d, fleetPathExp) *
				loadFactor[wl] * shadow / sevDiv[sv]
			ber := 0.5 * math.Erfc(math.Sqrt(snr/2))
			if ber < fleetBERFloor {
				ber = fleetBERFloor
			}
			f1 := math.Pow(keyF1, refSNR/snr) * typistFactor[ty]

			fb.ber.Add(ber)
			fb.f1.Add(f1)
			fb.pop.Add(ber)
			fb.model[m].Add(ber)
			fb.sev[sv].Add(ber)
			fb.sevF1[sv].Add(f1)
			fb.worst.Add(ber, i)
		}
		return fb
	})

	// Fold in block-index order (the float-determinism contract) and sum
	// the per-block state for the flat-memory evidence line.
	out := FleetResult{
		Plan:       campaign.PlanOf(ccfg),
		Anchors:    anchors,
		Severities: sevs,
		KeyF1:      keyF1,
	}
	total := newFleetBlock(len(anchorSNR), len(sevDiv))
	for _, s := range states {
		out.StateBytes += s.stateBytes()
		total.merge(s)
	}
	out.BER = total.ber
	out.F1 = total.f1
	out.Pop = total.pop
	out.Worst = total.worst.Items()
	for i, a := range anchors {
		out.PerModel = append(out.PerModel, FleetGroup{Name: a.Model, BER: total.model[i]})
	}
	for i, s := range sevs {
		out.PerSev = append(out.PerSev, FleetGroup{Name: s.Name, BER: total.sev[i], F1: total.sevF1[i]})
	}
	return out
}
