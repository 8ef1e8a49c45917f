package covert

import (
	"math"
	"math/cmplx"
	"reflect"
	"testing"
	"testing/quick"

	"pmuleak/internal/dsp"
	"pmuleak/internal/faults"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/xrand"
)

// demodulateOracle is the batch front half the Receiver replaced, kept
// as its oracle: the Welch PSD of the whole capture, the carrier search
// over it, the full-rate resonator trace of the selected offsets, and
// that trace's mean decimation in one pass — then the shared back half.
func demodulateOracle(cap *sdr.Capture, cfg RXConfig) *Demod {
	d := &Demod{}
	if len(cap.IQ) < 4*fftSize {
		return d
	}
	psd := dsp.WelchPSD(cap.IQ, fftSize)
	car := searchCarrier(psd, cap.SampleRate, cap.CenterFreqHz, cfg)
	d.Offsets = car.Offsets
	d.Quality.CarrierZ = car.Z
	d.Quality.Retries = car.Retries
	if !car.Found {
		return d
	}
	d.CarrierFound = true
	norm := make([]float64, len(d.Offsets))
	for i, f := range d.Offsets {
		norm[i] = f / cap.SampleRate
	}
	y := resonatorBank(cap.IQ, norm, acquisitionDecay(cfg, cap.SampleRate))
	d.Y = decimateMean(y, decimateFactor)
	d.DT = decimateFactor / cap.SampleRate
	return demodulateTrace(d, cfg)
}

// resonatorBank is the batch Eq. (1) acquisition: one single-pole
// complex resonator per offset (normalized by the sample rate), their
// magnitudes summed per sample and scaled by (1-decay).
func resonatorBank(x []complex128, offsets []float64, decay float64) []float64 {
	rot := make([]complex128, len(offsets))
	for i, f := range offsets {
		rot[i] = cmplx.Exp(complex(0, 2*math.Pi*f)) * complex(decay, 0)
	}
	z := make([]complex128, len(offsets))
	out := make([]float64, len(x))
	gain := 1 - decay
	for n, v := range x {
		var sum float64
		for i := range z {
			z[i] = z[i]*rot[i] + v
			sum += cmplx.Abs(z[i])
		}
		out[n] = sum * gain
	}
	return out
}

// decimateMean reduces x by factor, replacing each block with its mean;
// a final partial block averages over its actual length.
func decimateMean(x []float64, factor int) []float64 {
	out := make([]float64, 0, (len(x)+factor-1)/factor)
	for i := 0; i < len(x); i += factor {
		end := i + factor
		if end > len(x) {
			end = len(x)
		}
		var sum float64
		for _, v := range x[i:end] {
			sum += v
		}
		out = append(out, sum/float64(end-i))
	}
	return out
}

func TestDecimateMeanBlocks(t *testing.T) {
	got := decimateMean([]float64{1, 3, 5, 7, 9}, 2)
	want := []float64{2, 6, 9} // last block is partial
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decimateMean = %v, want %v", got, want)
	}
}

func TestDecimateMeanPreservesMeanProperty(t *testing.T) {
	// Property: for inputs whose length is a multiple of the factor,
	// the mean of the decimated signal equals the mean of the input.
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		n := 24 * (1 + rng.Intn(20))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Normal(0, 10)
		}
		d := decimateMean(x, 24)
		return math.Abs(dsp.Mean(d)-dsp.Mean(x)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// receiveChunked pushes iq into a fresh receiver in size-sample chunks
// (the last one shorter) and finalizes it.
func receiveChunked(t *testing.T, cap *sdr.Capture, cfg RXConfig, size int) *Demod {
	t.Helper()
	r, err := NewReceiver(cfg, cap.SampleRate, cap.CenterFreqHz)
	if err != nil {
		t.Fatalf("NewReceiver: %v", err)
	}
	for lo := 0; lo < len(cap.IQ); lo += size {
		hi := lo + size
		if hi > len(cap.IQ) {
			hi = len(cap.IQ)
		}
		r.Push(cap.IQ[lo:hi])
	}
	return r.Finalize()
}

// TestReceiverChunkingInvariance holds the one receiver to the batch
// oracle: on every laptop, for the default two-harmonic receiver and a
// one-harmonic receiver with three carrier retries (whose retry levels
// keep two distinct traces), faults off and on, at 1 and 4 DSP workers,
// the Demod of the capture pushed in chunks of 1, 7, 9973 and 65536
// samples, as one chunk, and as one chunk larger than the capture is
// reflect.DeepEqual to the oracle's. (Chunks shorter than a segment run
// at 1 worker only; see the loop.)
func TestReceiverChunkingInvariance(t *testing.T) {
	oneHarmonic := func(c RXConfig) RXConfig {
		c.NumHarmonics, c.CarrierRetries, c.Resync = 1, 3, true
		return c
	}
	faulty := faults.Config{DropRatePerS: 120, GainStepRatePerS: 15, GainStepMaxDB: 6}
	t.Cleanup(func() { dsp.SetDefaultParallelism(0) })
	for pi, prof := range laptop.Profiles() {
		clean, base := linkCapture(prof, 16, 300+int64(pi))
		for _, withFaults := range []bool{false, true} {
			cap := clean
			if withFaults {
				cap = &sdr.Capture{IQ: append([]complex128(nil), clean.IQ...),
					SampleRate: clean.SampleRate, CenterFreqHz: clean.CenterFreqHz}
				faults.MustNew(faulty, 400+int64(pi)).Apply(cap)
			}
			for _, rx := range []struct {
				name string
				cfg  RXConfig
			}{{"default", base}, {"1harm_3retries", oneHarmonic(base)}} {
				want := demodulateOracle(cap, rx.cfg)
				if !want.CarrierFound {
					t.Fatalf("%s %s faults=%v: oracle found no carrier; the comparison would be vacuous",
						prof.Model, rx.name, withFaults)
				}
				for _, par := range []int{1, 4} {
					dsp.SetDefaultParallelism(par)
					for _, size := range []int{1, 7, 9973, 65536, len(cap.IQ), len(cap.IQ) + 1} {
						if par > 1 && size < fftSize {
							// A chunk shorter than a Welch segment
							// completes each segment in its own
							// one-segment transform, which runs serially
							// whatever the worker count: par 1 covered it.
							continue
						}
						if got := receiveChunked(t, cap, rx.cfg, size); !reflect.DeepEqual(got, want) {
							t.Errorf("%s %s faults=%v par=%d chunk=%d: receiver differs from the batch oracle: %s",
								prof.Model, rx.name, withFaults, par, size, demodDiff(got, want))
						}
					}
				}
			}
		}
	}
}

// TestReceiverOneTracePerOffsetSet pins the trace layout: a retry level
// that selects the same offsets as a narrower one shares its trace. With
// the default two-harmonic receiver every laptop at 2.4 MS/s has exactly
// two in-band harmonics, so four retry levels keep one trace; with one
// harmonic they keep two.
func TestReceiverOneTracePerOffsetSet(t *testing.T) {
	for _, prof := range laptop.Profiles() {
		cfg := DefaultRXConfig()
		cfg.ExpectedF0 = prof.VRM.SwitchingFreqHz
		cfg.CarrierRetries = 3
		center := 1.5 * prof.VRM.SwitchingFreqHz
		for _, tc := range []struct{ harmonics, traces int }{{2, 1}, {1, 2}} {
			cfg.NumHarmonics = tc.harmonics
			r, err := NewReceiver(cfg, 2.4e6, center)
			if err != nil {
				t.Fatalf("%s: %v", prof.Model, err)
			}
			if got := len(r.State().Traces); got != tc.traces {
				t.Errorf("%s: %d harmonics with 3 retries keep %d traces, want %d",
					prof.Model, tc.harmonics, got, tc.traces)
			}
		}
	}
}

// TestReceiverRestoreChecksState: a state that does not follow from its
// sample count, or comes from another geometry, is refused and leaves
// the receiver untouched.
func TestReceiverRestoreChecksState(t *testing.T) {
	cap, cfg := linkCapture(laptop.Reference(), 16, 5)
	src, err := NewReceiver(cfg, cap.SampleRate, cap.CenterFreqHz)
	if err != nil {
		t.Fatal(err)
	}
	src.Push(cap.IQ[:12345])
	good := src.State()
	for name, mutate := range map[string]func(*ReceiverState){
		"samples": func(s *ReceiverState) { s.Samples++ },
		"tail":    func(s *ReceiverState) { s.Tail = s.Tail[1:] },
		"psd":     func(s *ReceiverState) { s.PSDSum = s.PSDSum[1:] },
		"bank":    func(s *ReceiverState) { s.Z = append(s.Z, 0) },
		"traces":  func(s *ReceiverState) { s.Traces = nil },
		"trace":   func(s *ReceiverState) { s.Traces[0].Y = s.Traces[0].Y[1:] },
	} {
		bad := good
		bad.Traces = append([]TraceState(nil), good.Traces...)
		mutate(&bad)
		r, err := NewReceiver(cfg, cap.SampleRate, cap.CenterFreqHz)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Restore(bad); err == nil {
			t.Errorf("%s: Restore accepted an inconsistent state", name)
		}
		if r.State().Samples != 0 {
			t.Errorf("%s: a refused Restore changed the receiver", name)
		}
	}
	r, _ := NewReceiver(cfg, cap.SampleRate, cap.CenterFreqHz)
	if err := r.Restore(good); err != nil {
		t.Fatalf("Restore refused a consistent state: %v", err)
	}
	r.Push(cap.IQ[12345:])
	if got, want := r.Finalize(), demodulateOracle(cap, cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored receiver differs from the oracle: %s", demodDiff(got, want))
	}
	if err := r.Restore(good); err == nil {
		t.Fatal("Restore accepted a finalized receiver")
	}
}
