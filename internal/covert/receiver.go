package covert

import (
	"fmt"
	"math"
	"math/cmplx"

	"pmuleak/internal/dsp"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
)

// fftSize is the PSD resolution used for carrier search and carrier
// detection (M in Eq. (1) terms).
const fftSize = 1024

// decimateFactor reduces the per-sample acquisition trace before edge
// detection.
const decimateFactor = 8

// histBins is the resolution of the power histogram used for threshold
// selection (Fig. 7).
const histBins = 48

// batchBits is the approximate number of bit periods per
// batch-processing window (§IV-B2).
const batchBits = 50

// RXConfig parameterizes the receiver's detection pipeline.
type RXConfig struct {
	// NumHarmonics is |S|: how many VRM spectral spikes to sum.
	NumHarmonics int
	// ExpectedF0 is the VRM switching frequency hint (Hz). Its
	// harmonics in the capture band are the spikes the receiver sums;
	// NewReceiver rejects a config without one.
	ExpectedF0 float64
	// MinBitPeriod bounds the shortest plausible signaling period and
	// sizes the first-pass edge kernel.
	MinBitPeriod sim.Time
	// CarrierMinZ is the minimum robust z-score of the spike bin above
	// the PSD floor for the capture to be considered to contain a VRM
	// carrier at all. Below it the demodulator reports no bits.
	CarrierMinZ float64
	// CarrierRetries bounds carrier re-acquisition: when the first
	// spike search fails the gate, each retry widens the search (one
	// more hinted harmonic, where one is in band) and relaxes
	// CarrierMinZ by 25%. Zero — the default — keeps the single-pass
	// behavior.
	CarrierRetries int
	// Resync enables per-batch period re-estimation (§IV-B2 batch
	// processing taken to its conclusion): estimatePeriod is re-run on
	// each batchBits window and, when the local period diverges from
	// the global one by more than resyncDivergence, gap filling inside
	// that window re-locks onto the local period. On a clean capture no
	// window diverges and the decoded bits are identical to Resync off.
	Resync bool
}

// DefaultRXConfig mirrors the paper's receiver: 1024-point spectral
// analysis, fundamental plus first harmonic.
func DefaultRXConfig() RXConfig {
	return RXConfig{
		NumHarmonics: 2,
		MinBitPeriod: 100 * sim.Microsecond,
		CarrierMinZ:  12,
	}
}

// Validate reports configuration errors.
func (c RXConfig) Validate() error {
	if c.NumHarmonics < 1 {
		return fmt.Errorf("covert: NumHarmonics must be >= 1")
	}
	if c.MinBitPeriod <= 0 {
		return fmt.Errorf("covert: MinBitPeriod must be positive")
	}
	if c.CarrierMinZ <= 0 {
		return fmt.Errorf("covert: CarrierMinZ must be positive")
	}
	if c.CarrierRetries < 0 || c.CarrierRetries > 8 {
		return fmt.Errorf("covert: CarrierRetries %d out of range [0,8]", c.CarrierRetries)
	}
	return nil
}

// Quality is the receiver's structured self-assessment: instead of
// silently returning fewer bits when the capture was damaged, the
// demodulator reports how hard it had to work. Experiments use it to
// correlate injected faults with decoder behavior.
type Quality struct {
	// CarrierZ is the robust z-score of the strongest selected spike
	// over the PSD floor (compared against CarrierMinZ).
	CarrierZ float64
	// Retries is the number of carrier re-acquisition retries consumed
	// before the gate passed (0 = first pass).
	Retries int
	// Resyncs counts batch windows whose local period diverged from
	// the global estimate and were re-locked (Resync mode only).
	Resyncs int
	// BatchPeriods are the per-window signaling-period estimates in
	// seconds (Resync mode only), global or local per the divergence
	// gate — the trace of how the symbol period walked.
	BatchPeriods []float64
	// BatchConfidence is, per window, the fraction of inter-start
	// distances within 10% of the period grid actually used — a
	// per-batch decoding confidence in [0, 1].
	BatchConfidence []float64
}

// Demod holds the receiver's intermediate traces and the decoded bits.
// The intermediates are retained because the paper's figures (4-7) are
// exactly these signals.
type Demod struct {
	// CarrierFound reports whether the capture contained VRM spikes.
	CarrierFound bool
	// Offsets are the baseband frequencies (Hz) summed in the Eq. (1)
	// acquisition.
	Offsets []float64
	// Y is the decimated acquisition trace.
	Y []float64
	// DT is the seconds-per-sample of Y (and Conv).
	DT float64
	// Conv is the final edge-detection convolution trace (Fig. 5).
	Conv []float64
	// Starts are the detected (and gap-filled) bit start indices in Y.
	Starts []int
	// RawDistances are the inter-start distances (seconds) before gap
	// filling — the Fig. 6 pulse-width sample set.
	RawDistances []float64
	// SignalingTime is the estimated per-bit duration (seconds): the
	// median of RawDistances.
	SignalingTime float64
	// Inserted counts synthetic starts added by gap filling.
	Inserted int
	// Powers are the per-bit average powers (Eq. 2), and Threshold the
	// bimodal decision threshold (Fig. 7).
	Powers    []float64
	Threshold float64
	// Bits is the decoded on-air bit sequence.
	Bits []byte
	// Quality is the receiver's self-assessment (carrier margin,
	// retries, resyncs, per-batch confidence).
	Quality Quality
}

// carrier is the outcome of the receiver's carrier search: the Eq. (1)
// frequency set, the spike's robust z-score over the PSD floor, the
// re-acquisition retries consumed, and whether the gate passed. On a
// failed search, Offsets and Z still carry the first pass so the Demod
// can report how close the capture came.
type carrier struct {
	Offsets []float64
	Z       float64
	Retries int
	Found   bool
}

// searchCarrier runs the receiver's step-1 carrier search over the
// finished Welch PSD (one value per FFT bin, fftSize of them).
// The Welch average shrinks the per-bin noise spread by the square root
// of the segment count, so even a spike well under twice the floor can
// be decisive; a robust z-score captures that.
func searchCarrier(psd []float64, sampleRate, centerFreqHz float64, cfg RXConfig) carrier {
	var car carrier
	car.Offsets = hintedOffsets(cfg, sampleRate, centerFreqHz, cfg.NumHarmonics)
	spike := spikePower(psd, car.Offsets, sampleRate)
	floor := dsp.Median(psd)
	sigma := 1.4826 * dsp.MAD(psd)
	if sigma <= 0 {
		return car
	}
	car.Z = (spike - floor) / sigma
	if car.Z < cfg.CarrierMinZ {
		// Bounded re-acquisition: a gain step or saturation burst can
		// smear the spike below the gate on the first look. Each retry
		// admits one more hinted harmonic and relaxes the gate by 25%,
		// so a genuinely dead capture still fails every step while a
		// damaged-but-live one re-locks.
		for r := 1; r <= cfg.CarrierRetries; r++ {
			offsets := hintedOffsets(cfg, sampleRate, centerFreqHz, cfg.NumHarmonics+r)
			z := (spikePower(psd, offsets, sampleRate) - floor) / sigma
			if z >= cfg.CarrierMinZ*math.Pow(0.75, float64(r)) {
				car.Offsets, car.Z, car.Retries = offsets, z, r
				car.Found = true
				return car
			}
		}
		return car
	}
	car.Found = true
	return car
}

// spikePower is the strongest PSD power among the offsets' bins.
// Narrowband interferers near a spike are attenuated by the acquisition
// tracker's own selectivity, so no offset is excluded here; slower
// signaling (a narrower tracker) is the §IV-C3 remedy when the band is
// polluted.
func spikePower(psd, offsets []float64, sampleRate float64) float64 {
	var spike float64
	for _, f := range offsets {
		if p := psd[dsp.FrequencyBin(f, len(psd), sampleRate)]; p > spike {
			spike = p
		}
	}
	return spike
}

// hintedOffsets is the Eq. (1) frequency set S as exact baseband
// offsets: up to numHarmonics harmonics of the ExpectedF0 hint that land
// in the usable band, in ascending harmonic order. Each carrier-retry
// widen level asks for one more harmonic, so a narrower level's set is
// always a prefix of a wider one's. Empty without a usable hint.
func hintedOffsets(cfg RXConfig, sampleRate, centerFreqHz float64, numHarmonics int) []float64 {
	usable := 0.46 * sampleRate
	var offsets []float64
	if cfg.ExpectedF0 > 0 {
		for k := 1; len(offsets) < numHarmonics && float64(k)*cfg.ExpectedF0 < sampleRate*3; k++ {
			off := float64(k)*cfg.ExpectedF0 - centerFreqHz
			if math.Abs(off) <= usable {
				offsets = append(offsets, off)
			}
		}
	}
	return offsets
}

// acquisitionDecay returns the Eq. (1) resonators' decay factor for the
// config. The tracker's time constant is a third of the shortest bit
// period: fast enough to keep bit edges sharp, narrow enough to reject
// interferers a few tens of kHz away from the tracked spikes.
func acquisitionDecay(cfg RXConfig, sampleRate float64) float64 {
	return dsp.DecayForTimeConstant((cfg.MinBitPeriod / 3).Seconds(), sampleRate)
}

// Receiver is the §IV-B receive pipeline as an incremental processor —
// the one implementation behind both Demodulate and the streaming
// daemon. Push IQ chunks of any size as they arrive, then Finalize; the
// Demod depends only on the concatenation of the pushed samples, never
// on where the chunk boundaries fell.
//
// The front half runs as the samples arrive. Welch PSD segments
// accumulate as each fftSize window completes (the samples from the
// next segment start on carried across chunk boundaries), transformed
// across the DSP engine's workers and added in segment order. The
// Eq. (1) resonator bank carries its state sample to sample and feeds
// each distinct carrier-retry offset set's running decimation block. The
// back half — carrier gate, edge detection, period estimation, gap
// filling, thresholding — needs global views, but only of compact
// intermediates: the 1024-bin PSD and the decimated traces (Samples/8
// floats each). Raw IQ is never retained, so a receiver holds the
// 1024-point PSD plus Samples/8 floats per trace, not the 16 bytes per
// sample of the capture.
//
// The offsets must be known before the capture ends, so the config
// needs an ExpectedF0 hint with a harmonic in the capture band; every
// production caller sets one.
type Receiver struct {
	cfg          RXConfig
	sampleRate   float64
	centerFreqHz float64

	// Welch accumulation: tail holds the samples from the next
	// segment's start on (fewer than fftSize), join the scratch for a
	// segment that straddles a chunk boundary.
	window   []float64
	tail     []complex128
	join     []complex128
	psdSum   []float64
	segments int

	// Resonator bank over the widest retry level's offsets, and one
	// decimated trace per distinct offset count: every narrower level's
	// offsets are a prefix of the widest, so the bank's prefix sums are
	// each level's acquisition trace. Every trace sees every sample, so
	// block, the sample count of the partial decimation block carried
	// across chunk boundaries, is shared. acc is acquire's scratch.
	res    []dsp.Resonator
	gain   float64
	traces []trace
	block  int
	acc    []float64

	total     int
	finalized bool
}

// trace is one offset count's decimated acquisition trace; sum carries
// its partial decimation block across chunk boundaries.
type trace struct {
	nOff int
	sum  float64
	y    []float64
}

// NewReceiver validates the config for a capture at sampleRate tuned to
// centerFreqHz and returns a receiver with empty state.
func NewReceiver(cfg RXConfig, sampleRate, centerFreqHz float64) (*Receiver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sampleRate <= 0 {
		return nil, fmt.Errorf("covert: sample rate %v must be positive", sampleRate)
	}
	if len(hintedOffsets(cfg, sampleRate, centerFreqHz, cfg.NumHarmonics)) == 0 {
		return nil, fmt.Errorf("covert: receiver needs an ExpectedF0 hint with a harmonic within ±%.0f Hz of %.0f Hz", 0.46*sampleRate, centerFreqHz)
	}
	decay := acquisitionDecay(cfg, sampleRate)
	if decay <= 0 || decay >= 1 {
		return nil, fmt.Errorf("covert: tracker time constant yields resonator decay %v outside (0,1)", decay)
	}
	r := &Receiver{
		cfg:          cfg,
		sampleRate:   sampleRate,
		centerFreqHz: centerFreqHz,
		window:       dsp.Hann(fftSize),
		tail:         make([]complex128, 0, fftSize),
		join:         make([]complex128, fftSize),
		psdSum:       make([]float64, fftSize),
		gain:         1 - decay,
		acc:          make([]float64, acquirePiece),
	}
	widest := hintedOffsets(cfg, sampleRate, centerFreqHz, cfg.NumHarmonics+cfg.CarrierRetries)
	r.res = make([]dsp.Resonator, len(widest))
	for i, f := range widest {
		norm := f / sampleRate
		r.res[i] = dsp.NewResonator(norm, decay)
	}
	for w := 0; w <= cfg.CarrierRetries; w++ {
		n := len(hintedOffsets(cfg, sampleRate, centerFreqHz, cfg.NumHarmonics+w))
		if len(r.traces) == 0 || r.traces[len(r.traces)-1].nOff != n {
			r.traces = append(r.traces, trace{nOff: n})
		}
	}
	return r, nil
}

// Push consumes one chunk of IQ samples. Chunks may have any size; the
// concatenation of all pushed chunks defines the capture. Not safe for
// concurrent use.
func (r *Receiver) Push(chunk []complex128) {
	if r.finalized {
		panic("covert: Push after Finalize")
	}
	r.total += len(chunk)
	r.accumulateWelch(chunk)
	r.acquire(chunk)
}

// accumulateWelch adds the power spectrum of every Welch segment that
// chunk completes — segments start every fftSize/2 samples from the
// first sample of the capture — and carries the samples from the next
// segment's start on into tail.
func (r *Receiver) accumulateWelch(chunk []complex128) {
	m, hop := fftSize, fftSize/2
	n := len(r.tail)
	start := -n // chunk offset of the next segment's first sample
	for ; start < 0 && start+m <= len(chunk); start += hop {
		copy(r.join, r.tail[n+start:])
		copy(r.join[-start:], chunk[:m+start])
		r.segments += dsp.AccumulatePSD(r.psdSum, r.join, hop, r.window)
	}
	if start < 0 {
		// The chunk ends before the next segment does.
		r.tail = append(r.tail[:0], r.tail[n+start:]...)
		r.tail = append(r.tail, chunk...)
		return
	}
	k := dsp.AccumulatePSD(r.psdSum, chunk[start:], hop, r.window)
	r.segments += k
	r.tail = append(r.tail[:0], chunk[start+k*hop:]...)
}

// acquirePiece is how many samples acquire works through at a time: it
// runs each resonator over the whole piece with its state in registers,
// and the piece-long scratch stays in cache.
const acquirePiece = 4096

// acquire runs the Eq. (1) resonator bank over chunk — the strictly
// sequential recurrence, state carried across chunks. Each trace's
// per-sample value is the bank's prefix sum up to its offset count (the
// magnitudes added in offset order, starting from zero), scaled by
// (1-decay), and feeds that trace's running decimation block.
func (r *Receiver) acquire(chunk []complex128) {
	gain, factor := r.gain, decimateFactor
	for len(chunk) > 0 {
		piece := chunk[:min(len(chunk), len(r.acc))]
		chunk = chunk[len(piece):]
		acc := r.acc[:len(piece)]
		clear(acc)
		i := 0
		for t := range r.traces {
			tr := &r.traces[t]
			for ; i < tr.nOff; i++ {
				res := r.res[i]
				for n, v := range piece {
					acc[n] += cmplx.Abs(res.Step(v))
				}
				r.res[i] = res
			}
			sum, block := tr.sum, r.block
			for _, a := range acc {
				sum += a * gain
				if block++; block == factor {
					tr.y = append(tr.y, sum/float64(factor))
					sum, block = 0, 0
				}
			}
			tr.sum = sum
		}
		r.block = (r.block + len(piece)) % factor
	}
}

// StateBytes estimates the receiver's retained memory. It grows with
// Samples/8 (the decimated traces), never with the raw sample count.
func (r *Receiver) StateBytes() int {
	n := cap(r.tail)*16 + cap(r.join)*16 + cap(r.psdSum)*8 + cap(r.window)*8 + len(r.res)*32 + cap(r.acc)*8
	for _, tr := range r.traces {
		n += cap(tr.y) * 8
	}
	return n
}

// Finalize closes the receiver and runs the back half over the
// accumulated intermediates: the carrier search over the averaged PSD,
// then edge detection through thresholding over the selected offset
// set's decimated trace. Further pushes panic.
func (r *Receiver) Finalize() *Demod {
	r.finalized = true
	d := &Demod{}
	if r.total < 4*fftSize {
		return d
	}

	// 1. Locate the VRM spikes and confirm a carrier is present.
	psd := make([]float64, len(r.psdSum))
	for i, v := range r.psdSum {
		psd[i] = v / float64(r.segments)
	}
	car := searchCarrier(psd, r.sampleRate, r.centerFreqHz, r.cfg)
	d.Offsets = car.Offsets
	d.Quality.CarrierZ = car.Z
	d.Quality.Retries = car.Retries
	if !car.Found {
		return d
	}
	d.CarrierFound = true

	// 2. Acquisition (Eq. 1): the decimated per-sample summed spike
	// amplitude at the selected offsets. The final partial decimation
	// block averages over its actual sample count.
	for _, tr := range r.traces {
		if tr.nOff == len(car.Offsets) {
			d.Y = tr.y
			if r.block > 0 {
				d.Y = append(d.Y, tr.sum/float64(r.block))
			}
		}
	}
	d.DT = decimateFactor / r.sampleRate
	return demodulateTrace(d, r.cfg)
}

// ReceiverState is a Receiver's carried state: what a checkpoint must
// hold to resume it. NewReceiver re-derives everything else (window,
// resonator rotations, trace layout) from the config. The slices alias
// the receiver's buffers, so read them before the next Push.
type ReceiverState struct {
	// Samples counts the IQ samples pushed so far.
	Samples int
	// PSDSum is the Welch accumulator over the segments Samples
	// completes; Tail holds the samples from the next segment's start
	// on.
	PSDSum []float64
	Tail   []complex128
	// Z is the resonator bank's state, one per offset of the widest
	// retry level.
	Z []complex128
	// Traces are the decimated acquisition traces, one per distinct
	// offset count in ascending order; each has Samples/8 samples and
	// the sum of its Samples%8-sample partial block.
	Traces []TraceState
}

// TraceState is one decimated acquisition trace: its samples so far and
// the running sum of its partial decimation block.
type TraceState struct {
	Y   []float64
	Sum float64
}

// State returns the receiver's carried state.
func (r *Receiver) State() ReceiverState {
	s := ReceiverState{
		Samples: r.total,
		PSDSum:  r.psdSum,
		Tail:    r.tail,
		Z:       make([]complex128, len(r.res)),
		Traces:  make([]TraceState, len(r.traces)),
	}
	for i := range r.res {
		s.Z[i] = r.res[i].Z
	}
	for i, tr := range r.traces {
		s.Traces[i] = TraceState{Y: tr.y, Sum: tr.sum}
	}
	return s
}

// Restore loads s into a receiver fresh from NewReceiver with the
// config and capture parameters of the one that produced it. s is
// checked against the receiver's geometry and against the sample count
// first — the tail length and every trace's length follow from
// Samples — so a state from another config, or a corrupted one, is an
// error and leaves the receiver untouched.
func (r *Receiver) Restore(s ReceiverState) error {
	m, hop := fftSize, fftSize/2
	segments := 0
	if s.Samples >= m {
		segments = (s.Samples-m)/hop + 1
	}
	switch {
	case r.finalized:
		return fmt.Errorf("covert: Restore after Finalize")
	case r.total != 0:
		return fmt.Errorf("covert: Restore needs a fresh receiver (this one has consumed %d samples)", r.total)
	case s.Samples < 0:
		return fmt.Errorf("covert: state has negative sample count %d", s.Samples)
	case len(s.Tail) != s.Samples-segments*hop:
		return fmt.Errorf("covert: state carries %d samples past the last segment start, %d samples leave %d", len(s.Tail), s.Samples, s.Samples-segments*hop)
	case len(s.PSDSum) != m:
		return fmt.Errorf("covert: state PSD has %d bins, receiver FFT size is %d", len(s.PSDSum), m)
	case len(s.Z) != len(r.res):
		return fmt.Errorf("covert: state resonator bank has %d states, receiver has %d offsets", len(s.Z), len(r.res))
	case len(s.Traces) != len(r.traces):
		return fmt.Errorf("covert: state has %d decimated traces, receiver has %d", len(s.Traces), len(r.traces))
	}
	for i, tr := range s.Traces {
		if len(tr.Y) != s.Samples/decimateFactor {
			return fmt.Errorf("covert: state trace %d holds %d samples, %d samples at decimation %d make %d",
				i, len(tr.Y), s.Samples, decimateFactor, s.Samples/decimateFactor)
		}
	}
	r.total = s.Samples
	r.segments = segments
	copy(r.psdSum, s.PSDSum)
	r.tail = append(r.tail[:0], s.Tail...)
	for i := range r.res {
		r.res[i].Z = s.Z[i]
	}
	for i, tr := range s.Traces {
		r.traces[i].y = append([]float64(nil), tr.Y...)
		r.traces[i].sum = tr.Sum
	}
	r.block = s.Samples % decimateFactor
	return nil
}

// Demodulate runs the full §IV-B pipeline over a capture: one Receiver,
// the whole capture pushed as one chunk, then Finalize. It panics on a
// config the receiver rejects.
func Demodulate(cap *sdr.Capture, cfg RXConfig) *Demod {
	r, err := NewReceiver(cfg, cap.SampleRate, cap.CenterFreqHz)
	if err != nil {
		panic(err)
	}
	r.Push(cap.IQ)
	return r.Finalize()
}

// demodulateTrace runs the back half of the §IV-B pipeline — edge
// detection, period estimation, gap filling, per-bit power, and
// thresholding (steps 3–6) — over a Demod whose acquisition trace is
// already in place: CarrierFound, Offsets, Quality.{CarrierZ,Retries},
// Y, and DT must be set. The Demod is finished in place and returned.
func demodulateTrace(d *Demod, cfg RXConfig) *Demod {
	// 3. First-pass edge detection sized by the minimum plausible bit
	// period (Fig. 5).
	minPeriod := int(cfg.MinBitPeriod.Seconds() / d.DT)
	if minPeriod < 2 {
		minPeriod = 2
	}
	conv := dsp.Convolve(d.Y, dsp.EdgeKernel(evenAtLeast(minPeriod/2)))
	starts := detectEdges(conv, minPeriod)
	if len(starts) < 3 {
		d.Conv = conv
		return d
	}

	// 4. Signaling time: median inter-start distance (Fig. 6).
	for i := 1; i < len(starts); i++ {
		d.RawDistances = append(d.RawDistances, float64(starts[i]-starts[i-1])*d.DT)
	}
	period := estimatePeriod(d.RawDistances, d.DT, minPeriod)
	d.SignalingTime = float64(period) * d.DT

	// 5. Second pass with the kernel matched to the measured period,
	// then gap filling at multiples of the signaling time.
	d.Conv = dsp.Convolve(d.Y, dsp.EdgeKernel(evenAtLeast(period/2)))
	starts = detectEdges(d.Conv, period*6/10)
	if len(starts) < 2 {
		return d
	}
	// Refresh the distance statistics from the better pass.
	d.RawDistances = d.RawDistances[:0]
	for i := 1; i < len(starts); i++ {
		d.RawDistances = append(d.RawDistances, float64(starts[i]-starts[i-1])*d.DT)
	}
	period = estimatePeriod(d.RawDistances, d.DT, minPeriod)
	d.SignalingTime = float64(period) * d.DT
	starts = clipToActive(starts, d.Y, period)
	if len(starts) == 0 {
		return d
	}
	d.Starts, d.Inserted = fillGaps(starts, period, zeroPeriod(starts, period),
		minPeriod, d.DT, cfg.Resync, &d.Quality)

	// 6. Per-bit average power (Eq. 2) and bimodal threshold (Fig. 7).
	// With return-to-zero coding a '1' is active only during the first
	// half of its period, so the power window covers the leading half
	// of each interval (skipping the shared start-of-bit housekeeping
	// burst); that roughly doubles the 1/0 contrast of the statistic.
	bounds := append(append([]int(nil), d.Starts...), d.Starts[len(d.Starts)-1]+period)
	for i := 0; i+1 < len(bounds); i++ {
		a, b := bounds[i], bounds[i+1]
		skip := (b - a) / 10
		a += skip
		if half := bounds[i] + (bounds[i+1]-bounds[i])/2; half < b {
			b = half
		}
		if b > len(d.Y) {
			b = len(d.Y)
		}
		if a >= b {
			d.Powers = append(d.Powers, 0)
			continue
		}
		d.Powers = append(d.Powers, dsp.MeanPower(d.Y[a:b]))
	}
	d.Threshold = dsp.BimodalThreshold(d.Powers, histBins)
	d.Bits = make([]byte, len(d.Powers))
	for i, p := range d.Powers {
		if p > d.Threshold {
			d.Bits[i] = 1
		}
	}
	return d
}

// estimatePeriod turns the inter-start distances into a signaling-period
// estimate (in Y samples). The distances are a mixture: mostly one
// period, plus multiples where weak bit starts were missed and
// sub-period values from spurious edges. Several quantile anchors are
// refined into candidate periods, and the candidate that explains the
// distance set with the smallest fractional residual wins.
func estimatePeriod(distances []float64, dt float64, minPeriod int) int {
	if len(distances) == 0 {
		return minPeriod
	}
	refine := func(p0 float64) float64 {
		ratios := make([]float64, 0, len(distances))
		for _, d := range distances {
			if k := math.Round(d / dt / p0); k >= 1 {
				ratios = append(ratios, d/dt/k)
			}
		}
		if len(ratios) == 0 {
			return p0
		}
		return dsp.Median(ratios)
	}
	score := func(p float64) float64 {
		var sum float64
		for _, d := range distances {
			k := math.Round(d / dt / p)
			if k < 1 {
				k = 1
			}
			sum += math.Abs(d/dt-k*p) / p
		}
		return sum / float64(len(distances))
	}
	best, bestScore := float64(minPeriod), math.Inf(1)
	for _, q := range []float64{0.10, 0.15, 0.25, 0.50} {
		p0 := dsp.Quantile(distances, q) / dt
		if p0 < float64(minPeriod) {
			p0 = float64(minPeriod)
		}
		p := refine(p0)
		if p < float64(minPeriod) {
			continue
		}
		if sc := score(p); sc < bestScore {
			best, bestScore = p, sc
		}
	}
	return int(best)
}

// detectEdges returns the locations of prominent positive peaks in
// conv, the acquisition trace convolved with a rising-edge kernel.
// Thresholding is done per batch (§IV-B2) with a global gate so silent
// stretches do not produce phantom edges.
func detectEdges(conv []float64, minDist int) []int {
	peaks := dsp.FindPeaks(conv, minDist, 0)
	if len(peaks) == 0 {
		return nil
	}
	// Global gate: a fraction of the near-maximum response.
	gate := 0.2 * dsp.Quantile(conv, 0.99)
	batch := batchBits * minDist
	var out []int
	// Peaks arrive in index order, so each batch's maximum is computed
	// once, when its first peak arrives.
	batchStart, localMax := -1, 0.0
	for _, p := range peaks {
		if start := (p / batch) * batch; start != batchStart {
			batchStart = start
			batchEnd := batchStart + batch
			if batchEnd > len(conv) {
				batchEnd = len(conv)
			}
			localMax, _ = dsp.Max(conv[batchStart:batchEnd])
		}
		thr := 0.25 * localMax
		if thr < gate {
			thr = gate
		}
		if conv[p] >= thr {
			out = append(out, p)
		}
	}
	return out
}

// maxFillGap bounds gap filling: gaps longer than this many signaling
// periods mark the end of the transmission even if stray edges follow.
const maxFillGap = 12

// zeroPeriod estimates the per-bit duration INSIDE multi-bit gaps.
// Gaps longer than one period consist of consecutive '0' bits (their
// start edges are the weak ones that go undetected), and a '0' bit's
// duration differs systematically from the overall median period; using
// the wrong period to subdivide a long run of zeros drops or invents a
// bit every few runs. The estimate is the median per-period length of
// the multi-period gaps themselves, falling back to the global period.
func zeroPeriod(starts []int, period int) int {
	var perBit []float64
	for i := 1; i < len(starts); i++ {
		gap := starts[i] - starts[i-1]
		k := int(math.Round(float64(gap) / float64(period)))
		if k >= 2 && k <= maxFillGap {
			perBit = append(perBit, float64(gap)/float64(k))
		}
	}
	if len(perBit) < 3 {
		return period
	}
	return int(dsp.Median(perBit))
}

// clipToActive trims detected starts to the stretch of the acquisition
// trace that actually contains transmission activity. '1' bits light the
// trace up at least every few periods, so the active region is bounded
// by the first and last samples whose level clearly exceeds the idle
// floor; edges outside it come from unrelated system activity.
func clipToActive(starts []int, y []float64, period int) []int {
	if len(starts) == 0 || len(y) == 0 {
		return nil
	}
	// Sustained activity: a transmission keeps the 2-period windowed
	// mean high (a '1' bit is active half its period), while isolated
	// interrupt bursts in the surrounding silence do not.
	smooth := dsp.MovingAverage(y, 2*period)
	lo := dsp.Quantile(smooth, 0.05)
	hi := dsp.Quantile(smooth, 0.95)
	thr := lo + 0.3*(hi-lo)
	first, last := -1, -1
	for i, v := range smooth {
		if v > thr {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return nil
	}
	first -= 2 * period
	last += period
	var out []int
	for _, s := range starts {
		if s >= first && s <= last {
			out = append(out, s)
		}
	}
	return out
}

// resyncDivergence is the relative gate for per-batch period re-lock:
// a window's local estimate must differ from the global period by more
// than this fraction before it replaces it. The gate is what keeps the
// Resync path bit-identical to the plain path on a clean capture —
// healthy windows never diverge this far — while a clock that drifted
// tens of ppm over a long capture does.
const resyncDivergence = 0.02

// fillGaps inserts synthetic starts wherever consecutive detected starts
// are separated by a near-multiple of the signaling period — the
// paper's recovery for bit starts whose edges were too weak or were
// suppressed by other system activity. Single-period decisions use the
// period; multi-period subdivision uses the zero-bit period (see
// zeroPeriod). A gap beyond maxFillGap periods truncates the stream.
//
// With resync, §IV-B2 batch processing is applied to the period itself:
// estimatePeriod is re-run on every batchBits-wide window of
// inter-start distances, and a window whose local period diverges from
// the global one re-locks gap filling onto its own estimate, with the
// zero-bit period scaled to match. Per-window periods and grid-fit
// confidences are recorded in q. Without resync every window uses the
// global period and q is not touched (it may be nil).
func fillGaps(starts []int, period, zPeriod, minPeriod int, dt float64, resync bool, q *Quality) (filled []int, inserted int) {
	if len(starts) == 0 {
		return nil, 0
	}
	if zPeriod <= 0 {
		zPeriod = period
	}
	filled = append(filled, starts[0])
	nDist := len(starts) - 1
	for lo := 0; lo < nDist; lo += batchBits {
		hi := lo + batchBits
		if hi > nDist {
			hi = nDist
		}
		used, zUsed := period, zPeriod
		if resync {
			local := make([]float64, 0, hi-lo)
			for i := lo; i < hi; i++ {
				local = append(local, float64(starts[i+1]-starts[i])*dt)
			}
			if p := estimatePeriod(local, dt, minPeriod); math.Abs(float64(p-period))/float64(period) > resyncDivergence {
				used = p
				q.Resyncs++
			}
			// The zero-bit period scales with the window's period: both
			// walk together under clock drift.
			zUsed = int(math.Round(float64(zPeriod) * float64(used) / float64(period)))
			if zUsed <= 0 {
				zUsed = used
			}
			fit := 0
			for _, g := range local {
				gs := g / dt
				if k := math.Round(gs / float64(used)); k >= 1 && math.Abs(gs-k*float64(used))/float64(used) < 0.1 {
					fit++
				}
			}
			q.BatchPeriods = append(q.BatchPeriods, float64(used)*dt)
			q.BatchConfidence = append(q.BatchConfidence, float64(fit)/float64(len(local)))
		}

		for i := lo; i < hi; i++ {
			gap := starts[i+1] - starts[i]
			k := int(math.Round(float64(gap) / float64(used)))
			if k >= 2 {
				k = int(math.Round(float64(gap) / float64(zUsed)))
				if k < 2 {
					k = 2
				}
			}
			if k > maxFillGap {
				return filled, inserted
			}
			for j := 1; j < k; j++ {
				filled = append(filled, starts[i]+j*gap/k)
				inserted++
			}
			filled = append(filled, starts[i+1])
		}
	}
	return filled, inserted
}

func evenAtLeast(n int) int {
	if n < 2 {
		return 2
	}
	if n%2 != 0 {
		n++
	}
	return n
}

// FindPreamble locates the best match of the expected preamble in the
// decoded bit stream by minimum Hamming distance, tolerating up to
// maxErrors bit flips. It returns the index just past the preamble and
// whether a match was found.
func FindPreamble(bits, preamble []byte, maxErrors int) (payloadStart int, ok bool) {
	if len(preamble) == 0 || len(bits) < len(preamble) {
		return 0, false
	}
	bestIdx, bestDist := -1, maxErrors+1
	for i := 0; i+len(preamble) <= len(bits); i++ {
		dist := 0
		for j := range preamble {
			if bits[i+j] != preamble[j] {
				dist++
				if dist > maxErrors {
					break
				}
			}
		}
		if dist < bestDist {
			bestDist, bestIdx = dist, i
		}
	}
	if bestIdx < 0 {
		return 0, false
	}
	return bestIdx + len(preamble), true
}

// RecoverPayloadN synchronizes on the preamble and decodes a payload of
// payloadBits bits with the frame's error-control code. ok is false when
// the preamble cannot be located. The size is required when
// interleaving is enabled, and it excludes trailing postamble and stray
// bits before decoding.
func (d *Demod) RecoverPayloadN(cfg TXConfig, payloadBits int) (payload []byte, corrections int, ok bool) {
	start := 0
	if len(cfg.Preamble) > 0 {
		var found bool
		start, found = FindPreamble(d.Bits, cfg.Preamble, len(cfg.Preamble)/4)
		if !found {
			return nil, 0, false
		}
	}
	payload, corrections = DecodePayloadN(d.Bits[start:], cfg, payloadBits)
	return payload, corrections, true
}
