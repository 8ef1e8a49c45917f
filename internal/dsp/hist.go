package dsp

import "math"

// Histogram is a fixed-width binning of a sample set, used both for the
// pulse-width PDF of Fig. 6 and the average-power distribution of Fig. 7.
type Histogram struct {
	Counts []float64 // bin occupancy (float so it can be smoothed)
	Lo, Hi float64   // value range covered
}

// NewHistogram bins x into bins equal-width bins spanning [min(x), max(x)].
func NewHistogram(x []float64, bins int) *Histogram {
	if bins <= 0 {
		panic("dsp: histogram needs at least one bin")
	}
	h := &Histogram{Counts: make([]float64, bins)}
	if len(x) == 0 {
		h.Hi = 1
		return h
	}
	h.Lo, _ = Min(x)
	h.Hi, _ = Max(x)
	if h.Hi == h.Lo {
		h.Hi = h.Lo + 1
	}
	for _, v := range x {
		h.Counts[h.bin(v)]++
	}
	return h
}

func (h *Histogram) bin(v float64) int {
	idx := int(float64(len(h.Counts)) * (v - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	return idx
}

// BinCenter returns the value at the center of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Smoothed returns a copy of the histogram with a moving-average of
// width w applied to the counts; the mode-finding logic runs on the
// smoothed shape so single-bin noise does not create spurious peaks.
func (h *Histogram) Smoothed(w int) *Histogram {
	return &Histogram{Counts: MovingAverage(h.Counts, w), Lo: h.Lo, Hi: h.Hi}
}

// Modes returns the values of the two most prominent local maxima of the
// smoothed histogram, in ascending value order. This is the Fig. 7
// procedure: the lower mode is the bit-0 power, the upper mode the
// bit-1 power. ok is false when the histogram has fewer than two
// separated modes (e.g. the capture contained only one symbol value).
func (h *Histogram) Modes() (lo, hi float64, ok bool) {
	peaks := FindPeaks(h.Counts, len(h.Counts)/10+1, 0)
	if len(peaks) < 2 {
		return 0, 0, false
	}
	// Pick the two tallest peaks.
	best, second := -1, -1
	for _, p := range peaks {
		if best == -1 || h.Counts[p] > h.Counts[best] {
			second = best
			best = p
		} else if second == -1 || h.Counts[p] > h.Counts[second] {
			second = p
		}
	}
	a, b := h.BinCenter(best), h.BinCenter(second)
	if a > b {
		a, b = b, a
	}
	return a, b, true
}

// BimodalThreshold selects the decision threshold between the two modes
// of the sample distribution, per Fig. 7: it locates the two most
// prominent histogram modes and places the threshold at the emptiest
// bin of the valley between them (tie-broken toward the modes'
// geometric mean, which is the equal-error point when the two
// populations have proportional spreads, as squared-amplitude powers
// do). When the distribution is not clearly bimodal it falls back to
// the midpoint of the observed range, which keeps the decoder alive at
// very low SNR.
func BimodalThreshold(samples []float64, bins int) float64 {
	if len(samples) == 0 {
		return 0
	}
	h := NewHistogram(samples, bins).Smoothed(3)
	lo, hi, ok := h.Modes()
	if !ok {
		mn, _ := Min(samples)
		mx, _ := Max(samples)
		return (mn + mx) / 2
	}
	// Valley search between the mode bins.
	loBin, hiBin := h.bin(lo), h.bin(hi)
	if hiBin-loBin < 2 {
		return (lo + hi) / 2
	}
	target := math.Sqrt(math.Max(lo, 1e-300) * math.Max(hi, 1e-300))
	bestBin := -1
	bestCount := math.Inf(1)
	bestDist := math.Inf(1)
	for b := loBin + 1; b < hiBin; b++ {
		c := h.Counts[b]
		dist := math.Abs(h.BinCenter(b) - target)
		if c < bestCount || (c == bestCount && dist < bestDist) {
			bestBin, bestCount, bestDist = b, c, dist
		}
	}
	if bestBin < 0 {
		return (lo + hi) / 2
	}
	return h.BinCenter(bestBin)
}

// Skewness returns the sample skewness of x, used by tests to verify the
// positive skew of the signaling-period distribution.
func Skewness(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var m2, m3 float64
	for _, v := range x {
		d := v - m
		m2 += d * d
		m3 += d * d * d
	}
	n := float64(len(x))
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}
