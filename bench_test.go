// Benchmarks that regenerate the paper's tables and figures, one bench
// per experiment, plus micro-benchmarks of the hot pipeline stages.
// Numbers of interest are attached as custom metrics (bps, BER, TPR...)
// so `go test -bench` output doubles as an experiment report.
//
// The per-iteration work is a complete experiment; run with
// -benchtime=1x (or the default, which will settle at a few iterations)
// to reproduce EXPERIMENTS.md.
package pmuleak

import (
	"fmt"
	"math/cmplx"
	"runtime"
	"testing"

	"pmuleak/internal/core"
	"pmuleak/internal/covert"
	"pmuleak/internal/dsp"
	"pmuleak/internal/emchannel"
	"pmuleak/internal/experiments"
	"pmuleak/internal/keylog"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
	"pmuleak/internal/sweep"
	"pmuleak/internal/xrand"
)

var benchScale = experiments.Quick

// ---------------------------------------------------------------------
// One benchmark per table/figure.

func BenchmarkFig2Spectrogram(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig2(int64(i + 1))
		ratio = res.SpikeOnOffRatio
	}
	b.ReportMetric(ratio, "on/off-ratio")
}

func BenchmarkSec3StateAblation(b *testing.B) {
	var disabledRatio float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.Sec3Ablation(int64(i + 1)) {
			if !r.PStates && !r.CStates {
				disabledRatio = r.SpikeOnOffRatio
			}
		}
	}
	b.ReportMetric(disabledRatio, "disabled-on/off-ratio")
}

func BenchmarkFig4Acquisition(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		res := experiments.Pipeline(int64(i+1), benchScale)
		n = res.AcquisitionLen
	}
	b.ReportMetric(float64(n), "trace-samples")
}

func BenchmarkFig5EdgeDetection(b *testing.B) {
	var starts, tx int
	for i := 0; i < b.N; i++ {
		res := experiments.Pipeline(int64(i+1), benchScale)
		starts, tx = res.DetectedStarts, res.TxBits
	}
	b.ReportMetric(float64(starts), "starts")
	b.ReportMetric(float64(tx), "tx-bits")
}

func BenchmarkFig6PulseWidth(b *testing.B) {
	var sigma, skew float64
	for i := 0; i < b.N; i++ {
		res := experiments.Pipeline(int64(i+1), benchScale)
		sigma, skew = res.RayleighSigma, res.PulseWidthSkew
	}
	b.ReportMetric(sigma*1e6, "rayleigh-sigma-us")
	b.ReportMetric(skew, "skew")
}

func BenchmarkFig7PowerThreshold(b *testing.B) {
	var thr float64
	for i := 0; i < b.N; i++ {
		res := experiments.Pipeline(int64(i+1), benchScale)
		thr = res.Threshold
	}
	b.ReportMetric(thr, "threshold")
}

func BenchmarkFig8DeletionInsertion(b *testing.B) {
	var dp, ip float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fig8(int64(i+1), benchScale)
		dp = res.Loaded.DeletionProb()
		ip = res.Loaded.InsertionProb()
	}
	b.ReportMetric(dp, "loaded-DP")
	b.ReportMetric(ip, "loaded-IP")
}

func BenchmarkTable2NearField(b *testing.B) {
	var bestTR, worstBER float64
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.TableII(int64(i+1), benchScale) {
			if r.TR > bestTR {
				bestTR = r.TR
			}
			if r.BER > worstBER {
				worstBER = r.BER
			}
		}
	}
	b.ReportMetric(bestTR, "best-bps")
	b.ReportMetric(worstBER, "worst-BER")
}

func BenchmarkSec4BackgroundLoad(b *testing.B) {
	var drop float64
	for i := 0; i < b.N; i++ {
		quiet, loaded := experiments.BackgroundLoadTRDrop(int64(i+1), benchScale)
		if quiet > 0 {
			drop = (quiet - loaded) / quiet
		}
	}
	b.ReportMetric(100*drop, "TR-drop-%")
}

func BenchmarkFig9Comparison(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = experiments.Fig9(int64(i+1), benchScale).Speedup()
	}
	b.ReportMetric(speedup, "speedup-x")
}

func BenchmarkTable3Distance(b *testing.B) {
	var far float64
	for i := 0; i < b.N; i++ {
		rows := experiments.TableIII(int64(i+1), benchScale)
		far = rows[len(rows)-1].TR
	}
	b.ReportMetric(far, "2.5m-bps")
}

func BenchmarkSec4NLoS(b *testing.B) {
	var tr float64
	for i := 0; i < b.N; i++ {
		tr = experiments.NLoS(int64(i+1), benchScale).TR
	}
	b.ReportMetric(tr, "through-wall-bps")
}

func BenchmarkFig11KeystrokeSpectrogram(b *testing.B) {
	var bursts int
	for i := 0; i < b.N; i++ {
		bursts = experiments.Fig11(int64(i + 1)).DistinctBursts
	}
	b.ReportMetric(float64(bursts), "bursts")
}

func BenchmarkTable4Keylogging(b *testing.B) {
	var tpr, prec float64
	for i := 0; i < b.N; i++ {
		rows := experiments.TableIV(int64(i+1), benchScale)
		tpr, prec = rows[0].TPR, rows[0].Precision
	}
	b.ReportMetric(100*tpr, "near-TPR-%")
	b.ReportMetric(100*prec, "near-precision-%")
}

func BenchmarkSec6Countermeasures(b *testing.B) {
	var disabledTPR float64
	for i := 0; i < b.N; i++ {
		rows := experiments.Countermeasures(int64(i+1), benchScale)
		disabledTPR = rows[1].KeylogTPR // DisablePowerStates row
	}
	b.ReportMetric(100*disabledTPR, "disabled-keylog-TPR-%")
}

func BenchmarkFingerprinting(b *testing.B) {
	var near, far float64
	for i := 0; i < b.N; i++ {
		res := experiments.Fingerprint(int64(i+1), benchScale)
		near, far = res.NearAccuracy, res.FarAccuracy
	}
	b.ReportMetric(100*near, "near-accuracy-%")
	b.ReportMetric(100*far, "2m-accuracy-%")
}

func BenchmarkMultiCoreIsolation(b *testing.B) {
	var cross float64
	for i := 0; i < b.N; i++ {
		cross = experiments.MultiCoreIsolation(int64(i+1), benchScale).CrossCoreErr
	}
	b.ReportMetric(cross, "cross-core-err")
}

func BenchmarkUtilizationLeak(b *testing.B) {
	var quarter float64
	for i := 0; i < b.N; i++ {
		quarter = experiments.UtilizationLeak(int64(i + 1)).Amplitude[0]
	}
	b.ReportMetric(quarter, "quarter-load-amplitude")
}

func BenchmarkDictionaryAttack(b *testing.B) {
	var top1 float64
	for i := 0; i < b.N; i++ {
		top1 = experiments.Dictionary(int64(i+1), benchScale).Top1Rate()
	}
	b.ReportMetric(100*top1, "top1-%")
}

func BenchmarkWaterfall(b *testing.B) {
	var clean, mid float64
	for i := 0; i < b.N; i++ {
		pts := experiments.Waterfall(int64(i+1), benchScale)
		clean, mid = pts[0].Rate, pts[2].Rate
	}
	b.ReportMetric(clean, "clean-bps")
	b.ReportMetric(mid, "mid-noise-bps")
}

func BenchmarkSleepFloor(b *testing.B) {
	var floorErr float64
	for i := 0; i < b.N; i++ {
		pts := experiments.SleepFloor(int64(i+1), benchScale)
		floorErr = pts[len(pts)-1].ErrorRate
	}
	b.ReportMetric(floorErr, "sub-10us-err")
}

// ---------------------------------------------------------------------
// Design-choice ablations (DESIGN.md §6).

func BenchmarkAblationHarmonics(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		res := experiments.ReceiverAblations(int64(i+1), benchScale)
		with, without = res[0].With, res[0].Without
	}
	b.ReportMetric(with, "S2-err")
	b.ReportMetric(without, "S1-err")
}

// BenchmarkAblationMatchedFilter contrasts the paper's batch-processing
// receiver with the naive matched-filter receiver the paper reports
// failing (§IV-B2): slicing the acquisition trace at a fixed synchronous
// bit clock instead of detecting per-bit start points.
func BenchmarkAblationMatchedFilter(b *testing.B) {
	var batchErr, matchedErr float64
	for i := 0; i < b.N; i++ {
		tb := core.NewTestbed(core.WithSeed(int64(i + 1)))
		res := tb.RunCovert(core.CovertConfig{PayloadBits: benchScale.PayloadBits})
		batchErr = res.ErrorRate()
		matchedErr = matchedFilterErrorRate(res)
	}
	b.ReportMetric(batchErr, "batch-err")
	b.ReportMetric(matchedErr, "matched-filter-err")
}

// matchedFilterErrorRate decodes the run's acquisition trace with a
// fixed-rate slicer (no edge detection, no gap filling) and aligns the
// result against the transmitted bits.
func matchedFilterErrorRate(res *core.CovertResult) float64 {
	d := res.Demod
	if len(d.Y) == 0 || d.SignalingTime <= 0 {
		return 1
	}
	period := int(d.SignalingTime / d.DT)
	if period < 1 {
		return 1
	}
	start := 0
	if len(d.Starts) > 0 {
		start = d.Starts[0]
	}
	var powers []float64
	for a := start; a+period <= len(d.Y); a += period {
		powers = append(powers, dsp.MeanPower(d.Y[a:a+period/2]))
	}
	if len(powers) == 0 {
		return 1
	}
	thr := dsp.BimodalThreshold(powers, 48)
	bits := make([]byte, len(powers))
	for i, p := range powers {
		if p > thr {
			bits[i] = 1
		}
	}
	if len(bits) > len(res.Run.Bits)+16 {
		bits = bits[:len(res.Run.Bits)+16]
	}
	m := covert.Measure(res.Run, &covert.Demod{Bits: bits}, res.TXCfg, nil)
	return m.ErrorRate()
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the hot pipeline stages.

func BenchmarkStageKernelSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := laptop.NewSystem(laptop.Reference(), int64(i+1))
		covert.SpawnTransmitter(sys.Kernel(),
			xrand.New(1).Bits(200), covert.DefaultTXConfig(100*sim.Microsecond))
		sys.Run(100 * sim.Millisecond)
		sys.Close()
	}
}

func BenchmarkStageEmanationRender(b *testing.B) {
	sys := laptop.NewSystem(laptop.Reference(), 1)
	defer sys.Close()
	covert.SpawnTransmitter(sys.Kernel(),
		xrand.New(1).Bits(200), covert.DefaultTXConfig(100*sim.Microsecond))
	horizon := 60 * sim.Millisecond
	sys.Run(horizon)
	plan := sys.DefaultPlan()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iq := sys.Emanations(horizon, plan)
		_ = iq
	}
}

func BenchmarkStageDemodulate(b *testing.B) {
	tb := core.NewTestbed(core.WithSeed(1))
	res := tb.RunCovert(core.CovertConfig{PayloadBits: 256})
	_ = res
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-run the full chain: Demodulate alone needs the capture,
		// which RunCovert owns; end-to-end is the realistic unit.
		tb.RunCovert(core.CovertConfig{PayloadBits: 256})
	}
}

func BenchmarkStageFFT1024(b *testing.B) {
	rng := xrand.New(1)
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
	}
	buf := make([]complex128, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		dsp.FFT(buf)
	}
}

// resonatorSink keeps BenchmarkStageResonators' magnitudes live.
var resonatorSink float64

func BenchmarkStageResonators(b *testing.B) {
	rng := xrand.New(2)
	x := make([]complex128, 1<<17)
	for i := range x {
		x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
	}
	b.SetBytes(int64(len(x) * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank := []dsp.Resonator{dsp.NewResonator(-0.2, 0.999), dsp.NewResonator(0.2, 0.999)}
		for _, v := range x {
			resonatorSink = cmplx.Abs(bank[0].Step(v)) + cmplx.Abs(bank[1].Step(v))
		}
	}
}

// BenchmarkSTFTParallel measures the engine's spectrogram throughput at
// several worker counts over a half-megasample capture (the Fig. 2
// shape: 1024-point FFT, 4x overlap). The parallel path also commits to
// zero steady-state allocations beyond the output spectrogram itself —
// ReportAllocs makes regressions visible.
func BenchmarkSTFTParallel(b *testing.B) {
	rng := xrand.New(5)
	x := make([]complex128, 1<<19)
	for i := range x {
		x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
	}
	window := dsp.Hann(1024)
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			eng := dsp.Engine{Parallelism: p}
			b.ReportAllocs()
			b.SetBytes(int64(len(x) * 16))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.STFT(x, 1024, 256, window, 2.4e6)
			}
		})
	}
}

// BenchmarkDemodulateParallel times the receiver alone — the capture is
// built once outside the loop — serial versus parallel (the process-wide
// DSP worker count), on a 256-bit frame. The decoded bits are
// bit-identical between the sub-benchmarks by the engine's equivalence
// guarantee; only wall-clock may differ.
func BenchmarkDemodulateParallel(b *testing.B) {
	prof := laptop.Reference()
	sys := laptop.NewSystem(prof, 9)
	defer sys.Close()
	txCfg := covert.DefaultTXConfig(prof.DefaultSleepPeriod)
	frame := covert.EncodeFrame(xrand.New(9).Bits(256), txCfg)
	covert.SpawnTransmitter(sys.Kernel(), frame, txCfg)
	horizon := covert.AirtimeEstimate(frame, txCfg, prof.Kernel)
	sys.Run(horizon)
	plan := sys.DefaultPlan()
	field := sys.Emanations(horizon, plan)
	rng := xrand.New(10)
	field = emchannel.Apply(field, plan.SampleRate, emchannel.DefaultConfig(), rng)
	cap := sdr.Acquire(field, plan.CenterFreqHz, sdr.DefaultConfig(), rng.Fork())

	cfg := covert.DefaultRXConfig()
	cfg.ExpectedF0 = prof.VRM.SwitchingFreqHz
	cfg.MinBitPeriod = txCfg.BitPeriod() / 2
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			dsp.SetDefaultParallelism(p)
			b.Cleanup(func() { dsp.SetDefaultParallelism(0) })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				covert.Demodulate(cap, cfg)
			}
		})
	}
}

// BenchmarkLayer is the per-layer ledger: one sub-benchmark per stage
// of the signal path, each timing that stage alone on a fixed input
// built outside the loop and reporting its throughput in Msamples/s.
//
// covert: covert.Demodulate on the covert-transfer tail case, a
// 512-bit Hamming(7,4) transfer from a Windows laptop (500 µs sleep
// period) captured at 2.4 MS/s.
//
// keylog: keylog.Detect on one 15-word keystroke session from the same
// laptop, captured at its 240 kS/s keystroke plan.
func BenchmarkLayer(b *testing.B) {
	b.Run("covert", func(b *testing.B) {
		prof, _ := laptop.ByModel("Dell Precision 7290")
		tb := core.NewTestbed(core.WithLaptop(prof), core.WithSeed(13))
		p := tb.PrepareCovert(core.CovertConfig{
			SleepPeriod: prof.DefaultSleepPeriod,
			PayloadBits: 512,
			Code:        covert.CodeHamming74,
		})
		defer p.Cap.Recycle()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			covert.Demodulate(p.Cap, p.RXCfg)
		}
		b.ReportMetric(float64(len(p.Cap.IQ))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msamples/s")
	})
	b.Run("keylog", func(b *testing.B) {
		prof, _ := laptop.ByModel("Dell Precision 7290")
		tb := core.NewTestbed(core.WithLaptop(prof), core.WithSeed(13))
		p := tb.PrepareKeylog(core.KeylogConfig{Words: 15})
		defer p.Cap.Recycle()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			keylog.Detect(p.Cap, p.DetCfg)
		}
		b.ReportMetric(float64(len(p.Cap.IQ))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msamples/s")
	})
}

func BenchmarkStageAlignment(b *testing.B) {
	rng := xrand.New(4)
	tx := rng.Bits(2000)
	rx := rng.Bits(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = covert.Measure(&covert.TxRun{Bits: tx, End: sim.Second},
			&covert.Demod{Bits: rx}, covert.DefaultTXConfig(100*sim.Microsecond), nil)
	}
}

// ---------------------------------------------------------------------
// Experiment orchestrator (internal/sweep) benches.

// BenchmarkTable3Orchestrated runs the Table III distance sweep through
// the cell orchestrator at several worker counts, each iteration from
// an empty transmitter-trace cache. The rows are bit-identical across
// every sub-benchmark (the sweep contract); allocation reporting makes
// the pooled-buffer savings visible.
func BenchmarkTable3Orchestrated(b *testing.B) {
	for _, jobs := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			sweep.SetDefaultJobs(jobs)
			b.Cleanup(func() {
				sweep.SetDefaultJobs(0)
				core.ResetTraceCache()
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.ResetTraceCache()
				experiments.TableIII(7, benchScale)
			}
		})
	}
}

// BenchmarkSweepOverhead measures the orchestrator's own cost on
// trivial cells — the fan-out must be cheap enough to be free next to
// any real simulation cell.
func BenchmarkSweepOverhead(b *testing.B) {
	for _, jobs := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sweep.MapJobs(jobs, 64, func(c int) int { return c * c })
			}
		})
	}
}
