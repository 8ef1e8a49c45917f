package keylog

import (
	"fmt"
	"math"

	"pmuleak/internal/dsp"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
)

// bandBins is how many bins around the spike are summed.
const bandBins = 3

// mergeGap joins activity separated by less than this, bridging brief
// dips inside one keystroke's handling.
const mergeGap = 15 * sim.Millisecond

// DetectorConfig parameterizes the keystroke detector of §V-C.
type DetectorConfig struct {
	// Window is the STFT segment length (the paper: 5 ms,
	// non-overlapping).
	Window sim.Time
	// ExpectedF0 is the VRM frequency hint: the band starts at its
	// spike and the tracker follows the drift from there. NewDetector
	// rejects a config without one.
	ExpectedF0 float64
	// MinKeystroke filters out bursts shorter than this (30 ms in the
	// paper: "a valid keystroke should take longer").
	MinKeystroke sim.Time
	// MaxKeystroke caps a detection's length; longer activity is
	// bulk processor work, not typing.
	MaxKeystroke sim.Time
	// TrackBlock re-acquires the spike frequency once per block of
	// this duration, following the VRM clock's slow thermal drift over
	// multi-minute captures; a block longer than the capture is one
	// static band. NewDetector rejects a zero TrackBlock.
	TrackBlock sim.Time
	// GapAware re-normalizes the band trace per TrackBlock before
	// thresholding. A mid-capture AGC gain step (or the level
	// discontinuity left where a USB overrun dropped samples) shifts
	// whole stretches of the trace up or down, pulling the single
	// global bimodal threshold out of the valley; block-local gain
	// normalization makes the threshold see the same idle/burst
	// contrast in every block. Off — the default — keeps the global
	// single-pass behavior.
	GapAware bool
}

// DefaultDetectorConfig mirrors the paper's settings.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		Window:       2500 * sim.Microsecond,
		MinKeystroke: 30 * sim.Millisecond,
		MaxKeystroke: 400 * sim.Millisecond,
		TrackBlock:   2 * sim.Second,
	}
}

// Validate reports configuration errors.
func (c DetectorConfig) Validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("keylog: Window must be positive")
	}
	if c.MinKeystroke <= 0 {
		return fmt.Errorf("keylog: bad duration filters")
	}
	if c.MaxKeystroke <= c.MinKeystroke {
		return fmt.Errorf("keylog: MaxKeystroke must exceed MinKeystroke")
	}
	if c.TrackBlock < 0 {
		return fmt.Errorf("keylog: negative TrackBlock")
	}
	return nil
}

// Keystroke is one detected key event, in capture-relative seconds.
type Keystroke struct {
	Start, End float64
}

// Duration returns the keystroke's detected length in seconds.
func (k Keystroke) Duration() float64 { return k.End - k.Start }

// Detection is the detector's full output, retaining the intermediate
// band-energy trace for the Fig. 11-style spectrogram rendering.
type Detection struct {
	Keystrokes []Keystroke
	// Band is the per-frame normalized spectral sample sequence (SS in
	// the paper's terminology).
	Band []float64
	// FrameDT is seconds per Band frame.
	FrameDT float64
	// Threshold is the activity decision level applied to Band.
	Threshold float64
}

// geometry is the derived STFT/tracking geometry of one detector: how
// to frame samples and schedule block re-acquisitions before any data
// has arrived.
type geometry struct {
	// fftSize is the non-overlapping STFT frame length in samples
	// (NextPowerOfTwo of the configured window).
	fftSize int
	// frameDT is seconds per STFT frame.
	frameDT float64
	// blockFrames is the re-acquisition block length in frames.
	blockFrames int
	// searchBins is the half-width of the per-block spike search:
	// ±25 kHz — the drift between blocks is small, but the initial hint
	// may be a few kHz off — and never less than ±2.
	searchBins int
}

// planGeometry derives the detector geometry for a sample rate. ok is
// false when the configured window rounds to zero samples at this rate:
// such a capture cannot resolve the window, so there is nothing to
// frame and nothing to detect.
func planGeometry(cfg DetectorConfig, sampleRate float64) (g geometry, ok bool) {
	windowSamples := int(cfg.Window.Seconds() * sampleRate)
	if windowSamples < 1 {
		return g, false
	}
	g.fftSize = dsp.NextPowerOfTwo(windowSamples)
	g.frameDT = float64(g.fftSize) / sampleRate
	g.blockFrames = int(cfg.TrackBlock.Seconds() / g.frameDT)
	if g.blockFrames < 1 {
		g.blockFrames = 1
	}
	g.searchBins = int(25e3 * float64(g.fftSize) / sampleRate)
	if g.searchBins < 2 {
		g.searchBins = 2
	}
	return g, true
}

// scanBlock runs one block of the §V-C band tracker: re-acquire the
// spike bin by searching ±searchBins around center over the block's
// mean spectrum (skipping the receiver's DC bin), then write each
// frame's bandBins-wide band energy into out. mag holds the block's
// STFT magnitude rows and out must have the same length. Returns the
// re-acquired center for the next block.
func scanBlock(mag [][]float64, out []float64, center, fftSize, searchBins int) int {
	// Mean spectrum of the block, searched near the last center.
	best, bestVal := center, -1.0
	for d := -searchBins; d <= searchBins; d++ {
		b := (center + d + fftSize) % fftSize
		if b == 0 {
			continue // skip the receiver's DC spike
		}
		var sum float64
		for _, row := range mag {
			sum += row[b]
		}
		if sum > bestVal {
			best, bestVal = b, sum
		}
	}
	center = best
	bins := make([]int, 0, bandBins)
	for i := -(bandBins - 1) / 2; len(bins) < bandBins; i++ {
		bins = append(bins, (center+i+fftSize)%fftSize)
	}
	for f, row := range mag {
		var sum float64
		for _, b := range bins {
			sum += row[b]
		}
		out[f] = sum
	}
	return center
}

// finishDetection runs the global tail of the detector over a complete
// band trace: optional per-block gain normalization (GapAware), global
// normalization, the bimodal threshold, and the merge/duration interval
// passes. It takes ownership of band (the returned Detection aliases
// and mutates it). blockFrames is the per-block normalization width for
// GapAware.
func finishDetection(band []float64, frameDT float64, blockFrames int, cfg DetectorConfig) *Detection {
	det := &Detection{Band: band, FrameDT: frameDT}
	if cfg.GapAware {
		normalizeBlocks(det.Band, blockFrames)
	}
	dsp.Normalize(det.Band)

	// Threshold: the trace is near-zero at idle and near-one during a
	// keystroke burst, so the bimodal threshold lands in the valley.
	det.Threshold = dsp.BimodalThreshold(det.Band, 40)

	frames := func(d sim.Time) int {
		// Round up: an interval passes the duration filter only when
		// it covers at least the full requirement.
		n := int(math.Ceil(d.Seconds() / det.FrameDT))
		if n < 1 {
			n = 1
		}
		return n
	}
	iv := dsp.ThresholdCrossings(det.Band, det.Threshold)
	iv = dsp.MergeIntervals(iv, frames(mergeGap))
	iv = dsp.FilterIntervals(iv, frames(cfg.MinKeystroke))
	maxFrames := frames(cfg.MaxKeystroke)
	for _, v := range iv {
		if v[1]-v[0] > maxFrames {
			continue
		}
		det.Keystrokes = append(det.Keystrokes, Keystroke{
			Start: float64(v[0]) * det.FrameDT,
			End:   float64(v[1]) * det.FrameDT,
		})
	}
	return det
}

// Detector is the §V-C keystroke detector as an incremental processor —
// the one implementation behind both Detect and the streaming daemon.
// Push IQ chunks of any size as they arrive, then Finalize; the
// Detection depends only on the concatenation of the pushed samples,
// never on where the chunk boundaries fell.
//
// The STFT streams naturally: frames do not overlap, so at most one
// partial frame carries across a chunk boundary, and the frames each
// chunk completes up to the next block boundary are transformed across
// the DSP workers (dsp.STFTInto) into the block's magnitude rows. The band
// tracker is block-local: as soon as one TrackBlock of frames has
// accumulated, the block re-acquires the spike and reduces its rows to
// one band sample per frame, and the rows are reused for the next
// block. Only the band trace (one float per frame) accumulates for the
// global tail — normalization, threshold, interval passes — which runs
// at Finalize. A detector holds O(TrackBlock·SampleRate +
// Samples/fftSize) floats, however long the capture.
//
// The initial band comes from the ExpectedF0 hint and the blocks from
// TrackBlock, so NewDetector needs both set; every production caller
// sets them.
type Detector struct {
	cfg        DetectorConfig
	g          geometry
	degenerate bool // the window rounds to zero samples at this rate

	window []float64
	frame  []complex128 // partial frame carried across chunks
	rows   [][]float64  // the current block's magnitude rows
	band   []float64
	center int

	total     int
	finalized bool
}

// NewDetector validates the config for a capture at sampleRate tuned to
// centerFreqHz and returns a detector with empty state.
func NewDetector(cfg DetectorConfig, sampleRate, centerFreqHz float64) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sampleRate <= 0 {
		return nil, fmt.Errorf("keylog: sample rate %v must be positive", sampleRate)
	}
	if cfg.ExpectedF0 <= 0 {
		return nil, fmt.Errorf("keylog: detector needs an ExpectedF0 hint for its initial band")
	}
	if cfg.TrackBlock <= 0 {
		return nil, fmt.Errorf("keylog: detector needs a positive TrackBlock")
	}
	d := &Detector{cfg: cfg}
	g, ok := planGeometry(cfg, sampleRate)
	if !ok {
		// The detector accepts the samples and reports the empty
		// Detection such a capture gets at Finalize.
		d.degenerate = true
		return d, nil
	}
	d.g = g
	d.window = dsp.Hann(g.fftSize)
	d.frame = make([]complex128, 0, g.fftSize)
	d.center = dsp.FrequencyBin(cfg.ExpectedF0-centerFreqHz, g.fftSize, sampleRate)
	return d, nil
}

// Push consumes one chunk of IQ samples. Not safe for concurrent use.
func (d *Detector) Push(chunk []complex128) {
	if d.finalized {
		panic("keylog: Push after Finalize")
	}
	d.total += len(chunk)
	if d.degenerate {
		return
	}
	m := d.g.fftSize
	if len(d.frame) > 0 {
		take := m - len(d.frame)
		if take > len(chunk) {
			take = len(chunk)
		}
		d.frame = append(d.frame, chunk[:take]...)
		chunk = chunk[take:]
		if len(d.frame) < m {
			return
		}
		d.transform(d.frame, 1)
		d.frame = d.frame[:0]
	}
	for len(chunk) >= m {
		n := len(chunk) / m
		if room := d.g.blockFrames - len(d.rows); n > room {
			n = room
		}
		d.transform(chunk, n)
		chunk = chunk[n*m:]
	}
	d.frame = append(d.frame, chunk...)
}

// transform appends the magnitude rows of the n frames at the start of
// x to the current block and flushes the block once it is full.
func (d *Detector) transform(x []complex128, n int) {
	lo := len(d.rows)
	d.growRows(lo + n)
	dsp.STFTInto(d.rows[lo:], x, d.g.fftSize, d.window)
	if len(d.rows) == d.g.blockFrames {
		d.flushBlock()
	}
}

// growRows extends the current block to n rows. The backing array
// grows geometrically up to one block and is reused for every block
// after the first.
func (d *Detector) growRows(n int) {
	if n > cap(d.rows) {
		c := 2 * cap(d.rows)
		if c > d.g.blockFrames {
			c = d.g.blockFrames
		}
		if c < n {
			c = n
		}
		m := d.g.fftSize
		flat := make([]float64, c*m)
		rows := make([][]float64, c)
		for f := range rows {
			rows[f] = flat[f*m : (f+1)*m : (f+1)*m]
			if f < len(d.rows) {
				copy(rows[f], d.rows[f])
			}
		}
		d.rows = rows[:len(d.rows)]
	}
	d.rows = d.rows[:n]
}

// flushBlock runs the §V-C per-block spike re-acquisition over the
// current block's rows and appends the block's band samples to the
// trace; the rows are then reused for the next block.
func (d *Detector) flushBlock() {
	if len(d.rows) == 0 {
		return
	}
	lo := len(d.band)
	d.band = append(d.band, make([]float64, len(d.rows))...)
	d.center = scanBlock(d.rows, d.band[lo:], d.center, d.g.fftSize, d.g.searchBins)
	d.rows = d.rows[:0]
}

// StateBytes estimates the detector's retained memory: the block rows
// (bounded by TrackBlock) plus the band trace (one float per frame).
func (d *Detector) StateBytes() int {
	return cap(d.frame)*16 + cap(d.rows)*d.g.fftSize*8 + cap(d.window)*8 + cap(d.band)*8
}

// Finalize closes the detector, flushes the final (possibly partial)
// block, and runs the global tail. Trailing samples shorter than a
// frame are dropped. Further pushes panic.
func (d *Detector) Finalize() *Detection {
	d.finalized = true
	if d.degenerate || d.total < d.g.fftSize {
		// A capture shorter than one STFT frame detects nothing.
		return &Detection{}
	}
	d.flushBlock()
	return finishDetection(d.band, d.g.frameDT, d.g.blockFrames, d.cfg)
}

// DetectorState is a Detector's carried state: what a checkpoint must
// hold to resume it. NewDetector re-derives everything else (geometry,
// window) from the config. The slices alias the detector's buffers, so
// read them before the next Push.
type DetectorState struct {
	// Samples counts the IQ samples pushed so far.
	Samples int
	// Center is the band tracker's current spike bin.
	Center int
	// Frame is the partial STFT frame, Rows the current block's
	// magnitude rows, and Band the band trace of the flushed blocks.
	Frame []complex128
	Rows  [][]float64
	Band  []float64
}

// State returns the detector's carried state.
func (d *Detector) State() DetectorState {
	return DetectorState{Samples: d.total, Center: d.center, Frame: d.frame, Rows: d.rows, Band: d.band}
}

// Restore loads s into a detector fresh from NewDetector with the
// config and capture parameters of the one that produced it. s is
// checked against the detector's geometry and against the sample count
// first — the partial frame, the block rows and the band trace follow
// from Samples — so a state from another config, or a corrupted one, is
// an error and leaves the detector untouched.
func (d *Detector) Restore(s DetectorState) error {
	switch {
	case d.finalized:
		return fmt.Errorf("keylog: Restore after Finalize")
	case d.total != 0:
		return fmt.Errorf("keylog: Restore needs a fresh detector (this one has consumed %d samples)", d.total)
	case s.Samples < 0:
		return fmt.Errorf("keylog: state has negative sample count %d", s.Samples)
	}
	if d.degenerate {
		if s.Center != 0 || len(s.Frame) != 0 || len(s.Rows) != 0 || len(s.Band) != 0 {
			return fmt.Errorf("keylog: state carries STFT data for a detector whose window does not resolve")
		}
		d.total = s.Samples
		return nil
	}
	m, frames := d.g.fftSize, s.Samples/d.g.fftSize
	switch {
	case len(s.Frame) != s.Samples%m:
		return fmt.Errorf("keylog: state partial frame holds %d samples, %d samples leave %d", len(s.Frame), s.Samples, s.Samples%m)
	case len(s.Rows) != frames%d.g.blockFrames || len(s.Band) != frames-len(s.Rows):
		return fmt.Errorf("keylog: state holds %d block rows and %d band samples, %d frames at %d per block make %d and %d",
			len(s.Rows), len(s.Band), frames, d.g.blockFrames, frames%d.g.blockFrames, frames-frames%d.g.blockFrames)
	case s.Center < 0 || s.Center >= m:
		return fmt.Errorf("keylog: state center bin %d outside [0,%d)", s.Center, m)
	}
	for i, row := range s.Rows {
		if len(row) != m {
			return fmt.Errorf("keylog: state block row %d has %d bins, frame size is %d", i, len(row), m)
		}
	}
	d.total = s.Samples
	d.center = s.Center
	d.frame = append(d.frame[:0], s.Frame...)
	d.growRows(len(s.Rows))
	for i, row := range s.Rows {
		copy(d.rows[i], row)
	}
	d.band = append([]float64(nil), s.Band...)
	return nil
}

// Detect runs the §V-C detector over a capture: one Detector, the whole
// capture pushed as one chunk, then Finalize. It panics on a config the
// detector rejects.
func Detect(cap *sdr.Capture, cfg DetectorConfig) *Detection {
	d, err := NewDetector(cfg, cap.SampleRate, cap.CenterFreqHz)
	if err != nil {
		panic(err)
	}
	d.Push(cap.IQ)
	return d.Finalize()
}

// normalizeBlocks rescales each blockFrames-wide stretch of the band
// trace by its own robust peak (98th percentile), equalizing the
// idle/burst contrast across AGC gain steps. The high quantile — not
// the max — keeps one saturated frame from crushing its whole block.
func normalizeBlocks(band []float64, blockFrames int) {
	if blockFrames < 1 {
		blockFrames = 1
	}
	for lo := 0; lo < len(band); lo += blockFrames {
		hi := lo + blockFrames
		if hi > len(band) {
			hi = len(band)
		}
		scale := dsp.Quantile(band[lo:hi], 0.98)
		if scale <= 0 {
			continue
		}
		for i := lo; i < hi; i++ {
			band[i] /= scale
		}
	}
}
