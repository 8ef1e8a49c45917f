package dsp

// Convolve computes the "same"-size linear convolution of x with kernel
// k: the output has len(x) entries and output[i] is the kernel centered
// at x[i]. Samples beyond the signal edges are treated as zero; an
// empty kernel or signal yields all zeros. This is the single-threaded
// path; Engine.Convolve computes the bit-identical result on a worker
// pool.
func Convolve(x, k []float64) []float64 {
	out := make([]float64, len(x))
	if len(k) == 0 {
		return out
	}
	convolveRange(out, x, k, 0, len(x))
	return out
}

// convolveRange fills out[lo:hi] with the "same"-size convolution of x
// and k. It is the shared inner loop of the serial and parallel paths.
// Each output sample is an independent dot product summed from +0 in
// tap order. Outputs whose taps all land inside x run four at a time,
// one accumulator each, so four add chains overlap instead of running
// back to back; every output still sees the same operations in the
// same order, so any partition of [0, len(x)), and any blocking within
// it, reproduces the serial result bit for bit.
func convolveRange(out, x, k []float64, lo, hi int) {
	half := len(k) / 2
	// Outputs in [inLo, inHi) read exactly x[i-half : i-half+len(k)].
	inLo := max(lo, half)
	inHi := min(hi, len(x)-len(k)+half+1)
	i := lo
	if inLo < inHi {
		convolveEdge(out, x, k, lo, inLo)
		for i = inLo; i+4 <= inHi; i += 4 {
			// Reslicing to len(k) lets the compiler drop the bounds
			// checks in the tap loop; x[a:a+len(k)] does not.
			x0 := x[i-half:]
			x0 = x0[:len(k)]
			x1 := x[i-half+1:]
			x1 = x1[:len(k)]
			x2 := x[i-half+2:]
			x2 = x2[:len(k)]
			x3 := x[i-half+3:]
			x3 = x3[:len(k)]
			var s0, s1, s2, s3 float64
			for j, kv := range k {
				s0 += x0[j] * kv
				s1 += x1[j] * kv
				s2 += x2[j] * kv
				s3 += x3[j] * kv
			}
			out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
		}
	}
	convolveEdge(out, x, k, i, hi)
}

// convolveEdge is convolveRange one output at a time, skipping the
// taps that fall outside x.
func convolveEdge(out, x, k []float64, lo, hi int) {
	half := len(k) / 2
	for i := lo; i < hi; i++ {
		var sum float64
		for j, kv := range k {
			idx := i + j - half
			if idx >= 0 && idx < len(x) {
				sum += x[idx] * kv
			}
		}
		out[i] = sum
	}
}

// EdgeKernel returns the length-l derivative-mimicking kernel the paper
// uses for bit-start detection (§IV-B2): the first half is -1 and the
// second half +1, so convolving it with the acquisition trace peaks at
// sharp rising edges. l must be even and positive.
func EdgeKernel(l int) []float64 {
	if l <= 0 || l%2 != 0 {
		panic("dsp: EdgeKernel length must be positive and even")
	}
	k := make([]float64, l)
	for i := range k {
		if i < l/2 {
			k[i] = -1
		} else {
			k[i] = 1
		}
	}
	return k
}

// BoxcarKernel returns a length-l moving-average kernel (each tap 1/l).
func BoxcarKernel(l int) []float64 {
	if l <= 0 {
		panic("dsp: BoxcarKernel length must be positive")
	}
	k := make([]float64, l)
	for i := range k {
		k[i] = 1 / float64(l)
	}
	return k
}

// MovingAverage smooths x with a window of width w (centered). It is
// equivalent to Convolve(x, BoxcarKernel(w)) but runs in O(n).
func MovingAverage(x []float64, w int) []float64 {
	if w <= 0 {
		panic("dsp: MovingAverage width must be positive")
	}
	out := make([]float64, len(x))
	half := w / 2
	var sum float64
	lo, hi := 0, 0 // current window is x[lo:hi]
	for i := range x {
		wantLo, wantHi := i-half, i-half+w
		if wantLo < 0 {
			wantLo = 0
		}
		if wantHi > len(x) {
			wantHi = len(x)
		}
		for hi < wantHi {
			sum += x[hi]
			hi++
		}
		for lo < wantLo {
			sum -= x[lo]
			lo++
		}
		out[i] = sum / float64(w)
	}
	return out
}

// Decimate keeps every factor-th sample of x, starting with x[0].
func Decimate(x []float64, factor int) []float64 {
	if factor <= 0 {
		panic("dsp: Decimate factor must be positive")
	}
	out := make([]float64, 0, (len(x)+factor-1)/factor)
	for i := 0; i < len(x); i += factor {
		out = append(out, x[i])
	}
	return out
}

// DecimateMean reduces x by the given factor, replacing each block with
// its mean. Unlike Decimate it acts as a crude anti-aliasing filter and
// is what the receiver uses before edge detection.
func DecimateMean(x []float64, factor int) []float64 {
	if factor <= 0 {
		panic("dsp: DecimateMean factor must be positive")
	}
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
