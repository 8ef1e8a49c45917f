package stream

import (
	"fmt"
	"math/cmplx"

	"pmuleak/internal/dsp"
	"pmuleak/internal/keylog"
	"pmuleak/internal/telemetry"
)

var (
	strKeylogSamples = telemetry.NewCounter("stream.keylog.samples")
	strKeylogFrames  = telemetry.NewCounter("stream.keylog.frames")
	strKeylogBlocks  = telemetry.NewCounter("stream.keylog.blocks")
)

// KeylogStatus is the live view of an in-flight keystroke stream.
type KeylogStatus struct {
	// Samples, Frames, and Blocks count consumed IQ samples, completed
	// STFT frames, and flushed tracking blocks.
	Samples, Frames, Blocks int
	// CenterHz is the band tracker's current spike estimate (absolute
	// frequency), following the VRM clock's drift block by block.
	CenterHz float64
}

// KeylogDetector is the streaming form of keylog.Detect: push IQ chunks
// as they arrive, then Finalize for a Detection byte-identical to the
// batch detector over the concatenated samples.
//
// The STFT streams naturally — frames are non-overlapping, so at most
// one partial frame carries across a chunk boundary — and the §V-C band
// tracker is block-local by construction: as soon as one TrackBlock of
// frames accumulates, keylog.ScanBlock re-acquires the spike and
// reduces the block's magnitude rows to TrackBlock band samples, after
// which the rows are reused for the next block. Only the band trace
// (one float per frame, Samples/fftSize of them) accumulates for the
// global tail — normalization, threshold, interval passes — which
// Finalize delegates to keylog.FinishDetection. Retained state is
// O(TrackBlock·SampleRate + Samples/fftSize), independent of how long
// the stream runs between blocks.
//
// The streaming contract needs two config guarantees the batch path can
// do without: ExpectedF0 > 0 (the blind initial band pick is a function
// of the whole capture's mean spectrum) and TrackBlock > 0 (a zero
// TrackBlock means one block spanning the entire capture, which is the
// opposite of streaming). NewKeylogDetector rejects configs without
// them.
type KeylogDetector struct {
	cfg          keylog.DetectorConfig
	g            keylog.Geometry
	sampleRate   float64
	centerFreqHz float64
	degenerate   bool // window rounds to zero samples at this rate

	plan   *dsp.FFTPlan
	window []float64
	frame  []complex128 // partial frame carried across chunks
	buf    []complex128 // transform scratch

	rows    [][]float64 // reused block rows, len == frames in current block
	rowsBak []float64   // backing array for rows
	band    []float64
	center  int
	frames  int
	blocks  int

	total     int
	finalized bool
}

// NewKeylogDetector validates the config against the streaming
// contract and returns a detector with empty state.
func NewKeylogDetector(cfg keylog.DetectorConfig, sampleRate, centerFreqHz float64) (*KeylogDetector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sampleRate <= 0 {
		return nil, fmt.Errorf("stream: SampleRate must be positive")
	}
	if cfg.ExpectedF0 <= 0 {
		return nil, fmt.Errorf("stream: keylog detector requires an ExpectedF0 hint (the blind band pick needs the full capture's mean spectrum)")
	}
	if cfg.TrackBlock <= 0 {
		return nil, fmt.Errorf("stream: keylog detector requires TrackBlock > 0 (a zero TrackBlock is one block spanning the whole capture)")
	}
	d := &KeylogDetector{cfg: cfg, sampleRate: sampleRate, centerFreqHz: centerFreqHz}
	g, ok := keylog.PlanGeometry(cfg, sampleRate)
	if !ok {
		// The batch path returns an empty Detection for captures that
		// cannot resolve the window; the streaming detector accepts the
		// samples and reports the same emptiness at Finalize.
		d.degenerate = true
		return d, nil
	}
	d.g = g
	d.plan = dsp.PlanFFT(g.FFTSize)
	d.window = dsp.Hann(g.FFTSize)
	d.frame = make([]complex128, 0, g.FFTSize)
	d.buf = make([]complex128, g.FFTSize)
	d.rowsBak = make([]float64, g.BlockFrames*g.FFTSize)
	d.rows = make([][]float64, 0, g.BlockFrames)
	d.center = dsp.FrequencyBin(cfg.ExpectedF0-centerFreqHz, g.FFTSize, sampleRate)
	return d, nil
}

// Push consumes one chunk of IQ samples. Not safe for concurrent use.
func (d *KeylogDetector) Push(chunk []complex128) {
	if d.finalized {
		panic("stream: Push after Finalize")
	}
	d.total += len(chunk)
	strKeylogSamples.Add(uint64(len(chunk)))
	if d.degenerate {
		return
	}
	for len(chunk) > 0 {
		take := d.g.FFTSize - len(d.frame)
		if take > len(chunk) {
			take = len(chunk)
		}
		d.frame = append(d.frame, chunk[:take]...)
		chunk = chunk[take:]
		if len(d.frame) == d.g.FFTSize {
			d.finishFrame()
		}
	}
}

// finishFrame transforms the completed frame into a magnitude row —
// the batch STFT's per-frame computation, through the same
// FFTPlan.WindowedTransform kernel — and flushes the block once
// TrackBlock frames have accumulated.
func (d *KeylogDetector) finishFrame() {
	d.plan.WindowedTransform(d.buf, d.frame, d.window)
	d.frame = d.frame[:0]
	row := d.rowsBak[len(d.rows)*d.g.FFTSize : (len(d.rows)+1)*d.g.FFTSize]
	for i, v := range d.buf {
		row[i] = cmplx.Abs(v)
	}
	d.rows = append(d.rows, row)
	d.frames++
	strKeylogFrames.Inc()
	if len(d.rows) == d.g.BlockFrames {
		d.flushBlock()
	}
}

// flushBlock runs the §V-C per-block spike re-acquisition over the
// accumulated rows and appends the block's band-energy samples to the
// global trace; the rows are then reused for the next block.
func (d *KeylogDetector) flushBlock() {
	if len(d.rows) == 0 {
		return
	}
	lo := len(d.band)
	d.band = append(d.band, make([]float64, len(d.rows))...)
	d.center = keylog.ScanBlock(d.rows, d.band[lo:], d.center,
		d.g.FFTSize, d.g.SearchBins, d.cfg.BandBins)
	d.rows = d.rows[:0]
	d.blocks++
	strKeylogBlocks.Inc()
}

// Status reports the stream's live state.
func (d *KeylogDetector) Status() KeylogStatus {
	st := KeylogStatus{Samples: d.total, Frames: d.frames, Blocks: d.blocks}
	if !d.degenerate {
		st.CenterHz = d.centerFreqHz + dsp.BinFrequency(d.center, d.g.FFTSize, d.sampleRate)
	}
	return st
}

// StateBytes estimates the detector's retained memory: the block rows
// (bounded by TrackBlock) plus the band trace (one float per frame).
func (d *KeylogDetector) StateBytes() int {
	return cap(d.frame)*16 + cap(d.buf)*16 + cap(d.rowsBak)*8 +
		cap(d.window)*8 + cap(d.band)*8
}

// Finalize closes the stream, flushes the final (possibly partial)
// block, and runs the batch detector's global tail. The returned
// Detection is byte-identical to keylog.Detect over the concatenation
// of every pushed chunk. Further pushes panic.
func (d *KeylogDetector) Finalize() *keylog.Detection {
	d.finalized = true
	if d.degenerate || d.total < d.g.FFTSize {
		// Batch: a capture shorter than one STFT frame detects nothing.
		return &keylog.Detection{}
	}
	// Any trailing samples shorter than a frame are dropped, exactly as
	// the batch STFT drops them; the last block is allowed to be
	// partial, exactly as the batch block loop clamps its end.
	d.flushBlock()
	return keylog.FinishDetection(d.band, d.g.FrameDT, d.g.BlockFrames, d.cfg)
}
