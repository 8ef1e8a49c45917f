package stream

import (
	"fmt"
	"math"
	"math/cmplx"

	"pmuleak/internal/covert"
	"pmuleak/internal/dsp"
	"pmuleak/internal/telemetry"
)

var (
	strCovertSamples  = telemetry.NewCounter("stream.covert.samples")
	strCovertSegments = telemetry.NewCounter("stream.covert.welch_segments")
	strCovertTracks   = telemetry.NewCounter("stream.covert.tracker_updates")
)

// CovertStatus is the running tracker's live view of an in-flight
// stream — what an operator sees before Finalize.
type CovertStatus struct {
	// Samples and Segments count consumed IQ samples and completed
	// Welch segments.
	Samples, Segments int
	// CarrierZ/CarrierFound/Retries are the provisional carrier search
	// over the PSD accumulated so far (the decision Finalize would make
	// if the stream ended now).
	CarrierZ     float64
	CarrierFound bool
	Retries      int
	// PeriodS, Confidence, and Edges are the latest §IV-B2 batch
	// statistics from the running period tracker: the signaling-period
	// estimate (seconds), the fraction of inter-start distances on the
	// period grid, and the edge count in the last tracked window. Zero
	// until a full tracking window has accumulated.
	PeriodS    float64
	Confidence float64
	Edges      int
}

// levelTrace is one carrier-retry widen level's decimated acquisition
// trace: the first nOff resonators' summed magnitudes, decimated by the
// shared factor. sum/count carry the current partial decimation block
// across chunk boundaries.
type levelTrace struct {
	nOff  int
	sum   float64
	count int
	y     []float64
}

// CovertReceiver is the streaming form of covert.Demodulate: push IQ
// chunks of any size as they arrive, then Finalize to obtain a Demod
// byte-identical to the batch pipeline over the concatenated samples.
//
// The front half of the batch pipeline runs incrementally — Welch PSD
// segments accumulate as each fftSize window fills (the half-overlap
// tail carried across chunk boundaries), and the Eq. (1) resonator bank
// carries its complex state sample-to-sample, emitting one decimated
// trace per carrier-retry widen level (each level's offset set is a
// prefix of the widest, so one bank serves all of them via prefix
// sums). The back half — carrier gate, edge detection, period
// estimation, gap filling, thresholding — needs global views, but only
// of compact intermediates: the fftSize-bin PSD and the decimated
// traces (Samples/DecimateFactor floats per level). Raw IQ is never
// retained, which is the entire memory story: a receiver's state is
// O(FFTSize + Samples/DecimateFactor), not 16·Samples bytes.
//
// Carrier selection must be decidable without the full-capture PSD, so
// the config needs an ExpectedF0 hint whose harmonics land in band
// (core.RunCovert always provides one). Blind peak selection — which is
// a function of the finished PSD — is the batch path's exclusive
// fallback and NewCovertReceiver rejects configs that would need it.
type CovertReceiver struct {
	cfg          covert.RXConfig
	sampleRate   float64
	centerFreqHz float64

	// Welch accumulation.
	fftSize  int
	hop      int
	window   []float64
	plan     *dsp.FFTPlan
	seg      []complex128 // pending samples, len < fftSize between pushes
	buf      []complex128 // scratch for window+transform
	psdSum   []float64
	segments int

	// Resonator bank over the widest level's offsets.
	rot    []complex128
	z      []complex128
	gain   float64
	levels []levelTrace

	// Running period tracker over the level-0 trace.
	dt          float64
	minPeriod   int // in decimated samples
	trackStride int // decimated samples between tracker updates
	nextTrack   int
	periodS     float64
	confidence  float64
	edges       int

	total     int
	finalized bool
}

// NewCovertReceiver validates the config against the streaming
// contract and returns a receiver with empty state.
func NewCovertReceiver(cfg covert.RXConfig, sampleRate, centerFreqHz float64) (*CovertReceiver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sampleRate <= 0 {
		return nil, fmt.Errorf("stream: SampleRate must be positive")
	}
	if _, ok := covert.HintedOffsets(cfg, sampleRate, centerFreqHz, 0); !ok {
		return nil, fmt.Errorf("stream: covert receiver requires an ExpectedF0 hint with in-band harmonics (blind carrier selection needs the full-capture PSD)")
	}
	decay := covert.AcquisitionDecay(cfg, sampleRate)
	if decay <= 0 || decay >= 1 {
		return nil, fmt.Errorf("stream: tracker time constant yields resonator decay %v outside (0,1)", decay)
	}
	c := &CovertReceiver{
		cfg:          cfg,
		sampleRate:   sampleRate,
		centerFreqHz: centerFreqHz,
		fftSize:      cfg.FFTSize,
		hop:          cfg.FFTSize / 2,
		window:       dsp.Hann(cfg.FFTSize),
		plan:         dsp.PlanFFT(cfg.FFTSize),
		seg:          make([]complex128, 0, cfg.FFTSize),
		buf:          make([]complex128, cfg.FFTSize),
		psdSum:       make([]float64, cfg.FFTSize),
		gain:         1 - decay,
	}
	// One resonator per offset of the widest retry level; every
	// narrower level is a prefix of it (hintedOffsets appends in-band
	// harmonics in ascending k order at every widen level), so the
	// bank's prefix sums reproduce each level's batch ResonatorBank
	// output exactly.
	widest, _ := covert.HintedOffsets(cfg, sampleRate, centerFreqHz, cfg.CarrierRetries)
	c.rot = make([]complex128, len(widest))
	c.z = make([]complex128, len(widest))
	for i, f := range widest {
		// Normalize first, then scale by 2π — the exact expression (and
		// rounding) of the batch path's norm[i] = f/fs feeding
		// dsp.ResonatorBank's rot table.
		norm := f / sampleRate
		c.rot[i] = cmplx.Exp(complex(0, 2*math.Pi*norm)) * complex(decay, 0)
	}
	c.levels = make([]levelTrace, cfg.CarrierRetries+1)
	for r := range c.levels {
		offs, _ := covert.HintedOffsets(cfg, sampleRate, centerFreqHz, r)
		c.levels[r].nOff = len(offs)
	}
	c.dt = float64(cfg.DecimateFactor) / sampleRate
	c.minPeriod = int(cfg.MinBitPeriod.Seconds() / c.dt)
	if c.minPeriod < 2 {
		c.minPeriod = 2
	}
	// One §IV-B2 batch of bits per tracker update.
	c.trackStride = cfg.BatchBits * c.minPeriod
	c.nextTrack = c.trackStride
	return c, nil
}

// Push consumes one chunk of IQ samples. Chunks may have any size; the
// concatenation of all pushed chunks defines the capture. Not safe for
// concurrent use (the daemon serializes per-stream pushes).
func (c *CovertReceiver) Push(chunk []complex128) {
	if c.finalized {
		panic("stream: Push after Finalize")
	}
	c.total += len(chunk)
	strCovertSamples.Add(uint64(len(chunk)))

	// Welch: fill the pending segment window; every time it reaches
	// fftSize, transform and accumulate, then slide by the half-overlap
	// hop — the same segment starts, in the same order, as the batch
	// WelchPSD.
	in := chunk
	for len(in) > 0 {
		take := c.fftSize - len(c.seg)
		if take > len(in) {
			take = len(in)
		}
		c.seg = append(c.seg, in[:take]...)
		in = in[take:]
		if len(c.seg) == c.fftSize {
			c.plan.WindowedTransform(c.buf, c.seg, c.window)
			for i, v := range c.buf {
				re, im := real(v), imag(v)
				c.psdSum[i] += re*re + im*im
			}
			c.segments++
			strCovertSegments.Inc()
			copy(c.seg, c.seg[c.hop:])
			c.seg = c.seg[:c.fftSize-c.hop]
		}
	}

	// Resonator bank: the strictly sequential Eq. (1) recurrence, state
	// carried across chunks. Each widen level's per-sample output is the
	// prefix sum of resonator magnitudes up to its offset count — the
	// identical floating-point order as its batch ResonatorBank — fed
	// straight into that level's running decimation block.
	for _, v := range chunk {
		var sum float64
		li := 0
		for i, rot := range c.rot {
			zi := c.z[i]*rot + v
			c.z[i] = zi
			sum += cmplx.Abs(zi)
			for li < len(c.levels) && c.levels[li].nOff == i+1 {
				lv := &c.levels[li]
				lv.sum += sum * c.gain
				lv.count++
				if lv.count == c.cfg.DecimateFactor {
					lv.y = append(lv.y, lv.sum/float64(c.cfg.DecimateFactor))
					lv.sum, lv.count = 0, 0
				}
				li++
			}
		}
	}
	c.track()
}

// track runs the §IV-B2 batch statistic over the most recent tracking
// window of the level-0 trace whenever a full stride of new decimated
// samples has accumulated — the running form of the Resync path's
// per-window period re-estimation, available live instead of only at
// Finalize.
func (c *CovertReceiver) track() {
	y := c.levels[0].y
	for len(y) >= c.nextTrack {
		lo := c.nextTrack - c.trackStride
		p, conf, edges := covert.TrackWindow(y[lo:c.nextTrack], c.dt, c.cfg)
		if edges >= 3 {
			c.periodS, c.confidence = p, conf
		}
		c.edges = edges
		c.nextTrack += c.trackStride
		strCovertTracks.Inc()
	}
}

// Status reports the stream's live state: the provisional carrier
// decision over the PSD accumulated so far and the running tracker's
// latest period estimate. Cost is one carrier search (O(FFTSize log
// FFTSize)); it does not perturb the stream.
func (c *CovertReceiver) Status() CovertStatus {
	st := CovertStatus{
		Samples:    c.total,
		Segments:   c.segments,
		PeriodS:    c.periodS,
		Confidence: c.confidence,
		Edges:      c.edges,
	}
	if c.segments > 0 {
		car := covert.SearchCarrier(c.psd(), c.sampleRate, c.centerFreqHz, c.cfg)
		st.CarrierZ, st.CarrierFound, st.Retries = car.Z, car.Found, car.Retries
	}
	return st
}

// psd finalizes the Welch average over the segments seen so far.
func (c *CovertReceiver) psd() []float64 {
	psd := make([]float64, c.fftSize)
	if c.segments == 0 {
		return psd
	}
	for i, v := range c.psdSum {
		psd[i] = v / float64(c.segments)
	}
	return psd
}

// StateBytes estimates the receiver's retained memory — the quantity
// the flat-memory daemon test pins. It grows with
// Samples/DecimateFactor (the decimated traces), never with raw sample
// count.
func (c *CovertReceiver) StateBytes() int {
	n := cap(c.seg)*16 + cap(c.buf)*16 + cap(c.psdSum)*8 +
		cap(c.window)*8 + len(c.rot)*32
	for _, lv := range c.levels {
		n += cap(lv.y) * 8
	}
	return n
}

// Finalize closes the stream and runs the batch back half over the
// accumulated intermediates. The returned Demod is byte-identical to
// covert.Demodulate over a capture holding the concatenation of every
// pushed chunk. Further pushes panic.
func (c *CovertReceiver) Finalize() *covert.Demod {
	c.finalized = true
	d := &covert.Demod{}
	if c.total < 4*c.cfg.FFTSize {
		return d
	}
	car := covert.SearchCarrier(c.psd(), c.sampleRate, c.centerFreqHz, c.cfg)
	d.Offsets = car.Offsets
	d.Quality.CarrierZ = car.Z
	d.Quality.Retries = car.Retries
	if !car.Found {
		return d
	}
	d.CarrierFound = true
	lv := &c.levels[car.Retries]
	if lv.count > 0 {
		// Final partial decimation block: DecimateMean averages the
		// tail over its actual element count.
		lv.y = append(lv.y, lv.sum/float64(lv.count))
		lv.sum, lv.count = 0, 0
	}
	d.Y = lv.y
	d.DT = c.dt
	return covert.DemodulateTrace(d, c.cfg)
}
