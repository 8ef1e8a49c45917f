package main

import (
	"fmt"
	"io"

	"pmuleak/internal/core"
	"pmuleak/internal/experiments"
)

// runContext carries the knobs every experiment runner receives.
type runContext struct {
	Seed  int64
	Scale experiments.Scale
	Show  bool // render ASCII spectrograms for the figures
	// Cells overrides the scale's fleet-campaign population when > 0.
	// It is part of the report's identity: a different population IS a
	// different report.
	Cells int64
}

// experimentSpec is one entry of the experiment registry: the -only
// name and the renderer. The registry is the single source of truth for
// which experiments exist — the -only flag's usage string, the unknown
// -name error message, and the golden equivalence test all derive from
// it, so none of them can drift.
type experimentSpec struct {
	Name string
	Run  func(w io.Writer, rc runContext)
}

// registry returns every experiment in presentation order.
func registry() []experimentSpec {
	return []experimentSpec{
		{"fig2", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("Fig. 2 — micro-benchmark spectrogram"))
			res := experiments.Fig2(rc.Seed)
			fmt.Fprintf(w, "paper   : strong/weak spike alternation at ~970 kHz; harmonics present\n")
			fmt.Fprintf(w, "measured: fundamental %.0f kHz, active/idle spike ratio %.1fx, "+
				"fundamental %.1fx the first harmonic\n",
				res.FundamentalKHz, res.SpikeOnOffRatio, res.HarmonicRatio)
			if rc.Show {
				core.RenderSpectrogram(w, res.Spectrogram, 20, 100)
			}
		}},

		{"sec3", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("§III — P-/C-state ablation"))
			fmt.Fprintf(w, "paper   : signal persists with either mechanism; disappears (constant strong\n")
			fmt.Fprintf(w, "          carrier) only when both are disabled\n")
			for _, r := range experiments.Sec3Ablation(rc.Seed) {
				fmt.Fprintf(w, "measured: %-14s on/off ratio %6.1fx, idle spike strength %.3g\n",
					r.Name, r.SpikeOnOffRatio, r.MeanSpikeStrength)
			}
		}},

		{"pipeline", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("Figs. 4-7 — receiver pipeline internals"))
			res := experiments.Pipeline(rc.Seed, rc.Scale)
			fmt.Fprintf(w, "Fig. 4  : acquisition trace of %d samples, sharp rise at each bit\n",
				res.AcquisitionLen)
			fmt.Fprintf(w, "Fig. 5  : %d bit starts detected for %d transmitted bits\n",
				res.DetectedStarts, res.TxBits)
			fmt.Fprintf(w, "Fig. 6  : median signaling time %.1f µs, Rayleigh sigma %.1f µs, "+
				"skew %+.2f (paper: positively skewed, Rayleigh-like)\n",
				1e6*res.MedianPulseWidth, 1e6*res.RayleighSigma, res.PulseWidthSkew)
			fmt.Fprintf(w, "Fig. 7  : power modes %.3g / %.3g, threshold %.3g in the valley\n",
				res.PowerModeLow, res.PowerModeHigh, res.Threshold)
		}},

		{"fig8", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("Fig. 8 — bit deletion/insertion"))
			res := experiments.Fig8(rc.Seed, rc.Scale)
			fmt.Fprintf(w, "paper   : deletion probability < 0.2%% (quiet), corrected by parity\n")
			fmt.Fprintf(w, "measured: quiet  IP=%.1e DP=%.1e\n",
				res.Quiet.InsertionProb(), res.Quiet.DeletionProb())
			fmt.Fprintf(w, "measured: loaded IP=%.1e DP=%.1e\n",
				res.Loaded.InsertionProb(), res.Loaded.DeletionProb())
		}},

		{"table2", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("Table II — near-field, six laptops"))
			paper := map[string]string{
				"Dell Precision 7290":   "BER=2e-3  TR= 982",
				"MacBookPro-2015":       "BER=3e-2  TR=3700",
				"Dell Inspiron 15-3537": "BER=8e-3  TR=3162",
				"MacBookPro-2018":       "BER=2.8e-2 TR=3640",
				"Lenovo Thinkpad":       "BER=5e-3  TR=3020",
				"Sony Ultrabook":        "BER=4e-3  TR= 974",
			}
			for _, r := range experiments.TableII(rc.Seed, rc.Scale) {
				fmt.Fprintf(w, "measured: %v   (paper: %s)\n", r, paper[r.Model])
			}
		}},

		{"background", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("§IV-C2 — background activity"))
			quiet, loaded := experiments.BackgroundLoadTRDrop(rc.Seed, rc.Scale)
			drop := 0.0
			if quiet > 0 {
				drop = 100 * (quiet - loaded) / quiet
			}
			fmt.Fprintf(w, "paper   : TR reduced ~15%% (worst 21%%) to hold BER under load\n")
			fmt.Fprintf(w, "measured: %.0f bps quiet -> %.0f bps loaded (%.0f%% reduction)\n",
				quiet, loaded, drop)
		}},

		{"fig9", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("Fig. 9 — rate comparison with prior work"))
			res := experiments.Fig9(rc.Seed, rc.Scale)
			for _, b := range res.Baselines {
				fmt.Fprintf(w, "measured: %v\n", b)
			}
			fmt.Fprintf(w, "measured: %-10s %8.0f bps (this work)\n", "Proposed", res.Proposed)
			fmt.Fprintf(w, "paper   : proposed >3x the fastest prior channel (GSMem); measured %.1fx\n",
				res.Speedup())
		}},

		{"table3", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("Table III — distance sweep (loop antenna)"))
			paper := map[float64]string{1.0: "TR 1872/1645", 1.5: "TR 1454", 2.5: "TR 1110"}
			for _, r := range experiments.TableIII(rc.Seed, rc.Scale) {
				fmt.Fprintf(w, "measured: %v   (paper: %s)\n", r, paper[r.DistanceM])
			}
		}},

		{"nlos", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("§IV-C3 — through the wall (Fig. 10 office)"))
			r := experiments.NLoS(rc.Seed, rc.Scale)
			fmt.Fprintf(w, "paper   : 821 bps at BER 6e-3 through a 35 cm wall with interferers\n")
			fmt.Fprintf(w, "measured: %v (ok=%v)\n", r, r.OK)
		}},

		{"fig11", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("Fig. 11 — keystroke spectrogram"))
			res := experiments.Fig11(rc.Seed)
			fmt.Fprintf(w, "paper   : every character of %q visible as a distinct burst\n", res.Text)
			fmt.Fprintf(w, "measured: %d bursts for %d keystrokes\n", res.DistinctBursts, res.Keystrokes)
			if rc.Show {
				core.RenderSpectrogram(w, res.Spectrogram, 16, 100)
			}
		}},

		{"table4", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("Table IV — keylogging accuracy"))
			paper := map[string]string{
				"10cm":      "TPR 100%  FPR 3.0%  Prec 71%  Recall 100%",
				"2m":        "TPR  99%  FPR 1.8%  Prec 70%  Recall 100%",
				"1.5m+wall": "TPR  97%  FPR 0.7%  Prec 70%  Recall  98%",
			}
			for _, r := range experiments.TableIV(rc.Seed, rc.Scale) {
				fmt.Fprintf(w, "measured: %v\n          (paper: %s)\n", r, paper[r.Placement])
			}
		}},

		{"countermeasures", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("§VI — countermeasures (measured extension)"))
			fmt.Fprintf(w, "paper   : proposes disabling P/C-states, PMU randomness, EMI shielding\n")
			for _, o := range experiments.Countermeasures(rc.Seed, rc.Scale) {
				fmt.Fprintf(w, "measured: %v\n", o)
			}
		}},

		{"fingerprint", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("§III (ii-b) — task fingerprinting (measured extension)"))
			res := experiments.Fingerprint(rc.Seed, rc.Scale)
			fmt.Fprintf(w, "paper   : activity duration can identify which website was loaded\n")
			fmt.Fprintf(w, "measured: %d-class page-load identification: %.0f%% near-field, %.0f%% at 2 m\n",
				res.Classes, 100*res.NearAccuracy, 100*res.FarAccuracy)
		}},

		{"multicore", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("Multi-core isolation (measured extension)"))
			res := experiments.MultiCoreIsolation(rc.Seed, rc.Scale)
			fmt.Fprintf(w, "claim   : pinning other work to another core does NOT hide it from the VRM\n")
			fmt.Fprintf(w, "measured: err quiet=%.1e  hog-same-core=%.1e  hog-other-core=%.1e\n",
				res.QuietErr, res.SameCoreErr, res.CrossCoreErr)
		}},

		{"utilization", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("Utilization inference (measured extension)"))
			res := experiments.UtilizationLeak(rc.Seed)
			fmt.Fprintf(w, "claim   : with Speed-Shift-style DVFS, emission amplitude tracks utilization\n")
			fmt.Fprintf(w, "measured: duty ")
			for _, d := range res.Duty {
				fmt.Fprintf(w, "%4.0f%% ", 100*d)
			}
			fmt.Fprintf(w, "-> amplitude ")
			for _, a := range res.Amplitude {
				fmt.Fprintf(w, "%.2f ", a)
			}
			fmt.Fprintf(w, "(monotone=%v)\n", res.Monotone())
		}},

		{"dictionary", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("SV-B dictionary attack (measured extension)"))
			res := experiments.Dictionary(rc.Seed, rc.Scale)
			fmt.Fprintf(w, "claim   : word length + inter-key timing identify dictionary words\n")
			fmt.Fprintf(w, "measured: %d words, top-1 %.0f%%, top-3 %.0f%%, mean %.0f same-length candidates\n",
				res.Words, 100*res.Top1Rate(), 100*res.Top3Rate(), res.MeanCands)
		}},

		{"waterfall", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("Noise waterfall (validation)"))
			fmt.Fprintf(w, "claim   : achievable rate falls gracefully as the noise floor rises\n")
			for _, pt := range experiments.Waterfall(rc.Seed, rc.Scale) {
				if pt.OK {
					fmt.Fprintf(w, "measured: noise sigma %.3f -> %4.0f bps (err %.1e)\n",
						pt.NoiseSigma, pt.Rate, pt.ErrorRate)
				} else {
					fmt.Fprintf(w, "measured: noise sigma %.3f -> link dead\n", pt.NoiseSigma)
				}
			}
		}},

		{"sleepfloor", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("SIV-A - the SLEEP_PERIOD floor"))
			fmt.Fprintf(w, "paper   : ~10us is the limit below which usleep becomes highly variable\n")
			for _, pt := range experiments.SleepFloor(rc.Seed, rc.Scale) {
				fmt.Fprintf(w, "measured: sleep %6v -> jitter CV %.2f, %5.0f bps at err %.2e\n",
					pt.SleepPeriod, pt.JitterCV, pt.Rate, pt.ErrorRate)
			}
		}},

		{"ablations", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("Receiver design ablations"))
			for _, a := range experiments.ReceiverAblations(rc.Seed, rc.Scale) {
				fmt.Fprintf(w, "measured: %-40s with=%.3g without=%.3g (%s)\n",
					a.Name, a.With, a.Without, a.Comment)
			}
		}},

		{"robustness", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("Acquisition-fault robustness (measured extension)"))
			res := experiments.Robustness(rc.Seed, rc.Scale)
			fmt.Fprintf(w, "claim   : the batch receiver degrades gracefully under acquisition faults\n")
			for i, drift := range res.DriftPPMs {
				for j, gain := range res.GainDBs {
					fmt.Fprintf(w, "measured: drift %3.0fppm gain %2.0fdB : BER", drift, gain)
					for _, pt := range res.Row(i, j) {
						fmt.Fprintf(w, " %.1e", pt.ResyncBER)
					}
					fmt.Fprintf(w, "  (drops/s")
					for _, r := range res.DropRates {
						fmt.Fprintf(w, " %.0f", r)
					}
					fmt.Fprintf(w, "; monotone in drops=%v)\n", res.Monotone(i, j))
				}
			}
			if res.KneeDropRate >= 0 {
				fmt.Fprintf(w, "measured: ECC knee — Hamming(7,4)+interleave stops saving the payload at %.0f drops/s\n",
					res.KneeDropRate)
			} else {
				fmt.Fprintf(w, "measured: ECC knee — payload survived the whole drop sweep\n")
			}
			for _, kp := range res.Keylog {
				fmt.Fprintf(w, "measured: keystroke F1 at %2.0fdB gain steps (%2d events): plain %.2f, gap-aware %.2f\n",
					kp.GainStepDB, kp.GainSteps, kp.PlainF1, kp.GapAwareF1)
			}
		}},

		{"fleet", func(w io.Writer, rc runContext) {
			fmt.Fprint(w, experiments.Banner("Fleet campaign — population-scale attack surface (extension)"))
			res := experiments.Fleet(rc.Seed, rc.Scale, rc.Cells)
			fmt.Fprintf(w, "claim   : anchored surrogate scales the six-laptop bench to a heterogeneous fleet\n")
			fmt.Fprintf(w, "population: %d cells over %d reduction blocks (Zipf model/load/typist/severity mixes)\n",
				res.Plan.Cells, res.Plan.Blocks)
			for _, a := range res.Anchors {
				fmt.Fprintf(w, "anchor  : %-22s BER=%.1e TR=%4.0f -> SNR %5.1f\n", a.Model, a.BER, a.TR, a.SNR)
			}
			fmt.Fprintf(w, "anchor  : keystroke F1 %.2f near-field; fault severity SNR divisors", res.KeyF1)
			for _, s := range res.Severities {
				fmt.Fprintf(w, " %s=%.2f", s.Name, s.SNRFactor)
			}
			fmt.Fprintf(w, "\n")
			fmt.Fprintf(w, "measured: population BER mean=%.2e std=%.2e  q50=%.1e q90=%.1e q99=%.1e q99.9=%.1e\n",
				res.Pop.Mean, res.Pop.Std(),
				res.BER.Quantile(0.5), res.BER.Quantile(0.9),
				res.BER.Quantile(0.99), res.BER.Quantile(0.999))
			fmt.Fprintf(w, "measured: keystroke F1 q10=%.2f q50=%.2f q90=%.2f\n",
				res.F1.Quantile(0.1), res.F1.Quantile(0.5), res.F1.Quantile(0.9))
			for _, g := range res.PerModel {
				fmt.Fprintf(w, "measured: model %-22s share %4.1f%%  mean BER %.2e\n",
					g.Name, 100*float64(g.BER.Count)/float64(res.Plan.Cells), g.BER.Mean)
			}
			for _, g := range res.PerSev {
				fmt.Fprintf(w, "measured: severity %-9s share %4.1f%%  mean BER %.2e  mean F1 %.2f\n",
					g.Name, 100*float64(g.BER.Count)/float64(res.Plan.Cells), g.BER.Mean, g.F1.Mean)
			}
			for _, it := range res.Worst {
				fmt.Fprintf(w, "measured: worst cell %8d  BER %.3e\n", it.Cell, it.Value)
			}
			fmt.Fprintf(w, "reducers: %d bytes of streamed state across %d blocks (flat in cell count)\n",
				res.StateBytes, res.Plan.Blocks)
		}},
	}
}

// registryNames returns the -only names in presentation order.
func registryNames() []string {
	specs := registry()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}
