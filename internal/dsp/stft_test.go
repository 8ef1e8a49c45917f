package dsp

import (
	"math"
	"math/cmplx"
	"strconv"
	"strings"
	"testing"

	"pmuleak/internal/xrand"
)

// tone generates a complex exponential at frequency f (Hz) sampled at sr.
func tone(n int, f, sr, amp float64) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(amp, 0) * cmplx.Exp(complex(0, 2*math.Pi*f*float64(i)/sr))
	}
	return x
}

func TestHannEndpointsAndPeak(t *testing.T) {
	w := Hann(65)
	if !approxEqual(w[0], 0, 1e-12) || !approxEqual(w[64], 0, 1e-12) {
		t.Errorf("Hann endpoints = %v, %v, want 0", w[0], w[64])
	}
	if !approxEqual(w[32], 1, 1e-12) {
		t.Errorf("Hann center = %v, want 1", w[32])
	}
}

func TestHammingEndpoints(t *testing.T) {
	w := Hamming(11)
	if !approxEqual(w[0], 0.08, 1e-9) {
		t.Errorf("Hamming[0] = %v, want 0.08", w[0])
	}
}

func TestBlackmanSymmetry(t *testing.T) {
	w := Blackman(64)
	for i := range w {
		if !approxEqual(w[i], w[len(w)-1-i], 1e-12) {
			t.Fatalf("Blackman not symmetric at %d", i)
		}
	}
}

func TestWindowLengthOne(t *testing.T) {
	for _, f := range []func(int) []float64{Hann, Hamming, Blackman, Rect} {
		w := f(1)
		if len(w) != 1 || w[0] != 1 {
			t.Errorf("window of length 1 = %v", w)
		}
	}
}

func TestApplyWindowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched ApplyWindow did not panic")
		}
	}()
	ApplyWindow(make([]complex128, 4), make([]float64, 5))
}

func TestSTFTFrameCountAndShape(t *testing.T) {
	x := make([]complex128, 1000)
	s := STFT(x, 256, 128, Hann(256), 1e6)
	// Frames start at 0,128,...,744 -> last full frame start 744? 744+256=1000 ok.
	want := 0
	for start := 0; start+256 <= 1000; start += 128 {
		want++
	}
	if s.Frames() != want {
		t.Fatalf("Frames = %d, want %d", s.Frames(), want)
	}
	for _, row := range s.Mag {
		if len(row) != 256 {
			t.Fatalf("row length %d", len(row))
		}
	}
}

func TestSTFTLocatesTone(t *testing.T) {
	const sr = 2.4e6
	const f = 300e3
	x := tone(8192, f, sr, 1)
	s := STFT(x, 1024, 256, Hann(1024), sr)
	bin := s.Bin(f)
	for frame, row := range s.Mag {
		_, peak := Max(row)
		if peak != bin {
			t.Fatalf("frame %d peak at bin %d, want %d", frame, peak, bin)
		}
	}
}

func TestSTFTTracksAmplitudeChange(t *testing.T) {
	// First half strong tone, second half weak: band energy must drop.
	const sr = 1e6
	const f = 100e3
	strong := tone(8192, f, sr, 1)
	weak := tone(8192, f, sr, 0.05)
	x := append(strong, weak...)
	s := STFT(x, 512, 256, Hann(512), sr)
	bin := s.Bin(f)
	col := s.Column(bin)
	n := len(col)
	early := Mean(col[:n/3])
	late := Mean(col[2*n/3:])
	if late >= early/5 {
		t.Fatalf("amplitude drop not visible: early %v late %v", early, late)
	}
}

func TestBandEnergyEqualsColumnSum(t *testing.T) {
	rng := xrand.New(5)
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
	}
	s := STFT(x, 256, 64, Hann(256), 1e6)
	bins := []int{10, 20, 30}
	be := s.BandEnergy(bins)
	for i := range be {
		var want float64
		for _, b := range bins {
			want += s.Mag[i][b]
		}
		if !approxEqual(be[i], want, 1e-12) {
			t.Fatalf("BandEnergy mismatch at frame %d", i)
		}
	}
}

func TestSpectrogramTimeMapping(t *testing.T) {
	s := &Spectrogram{FFTSize: 1024, Hop: 512, SampleRate: 1e6}
	if got := s.FrameTime(0); !approxEqual(got, 512e-6, 1e-12) {
		t.Errorf("FrameTime(0) = %v", got)
	}
	if got := s.FrameTime(2); !approxEqual(got, (1024+512)/1e6, 1e-12) {
		t.Errorf("FrameTime(2) = %v", got)
	}
}

func TestWelchPSDFindsCarrier(t *testing.T) {
	const sr = 2.4e6
	const f = 970e3
	rng := xrand.New(6)
	x := tone(16384, f, sr, 1)
	for i := range x {
		x[i] += complex(rng.Normal(0, 0.1), rng.Normal(0, 0.1))
	}
	psd := WelchPSD(x, 1024)
	_, peak := Max(psd)
	if peak != FrequencyBin(f, 1024, sr) {
		t.Fatalf("PSD peak at bin %d, want %d", peak, FrequencyBin(f, 1024, sr))
	}
}

func TestSTFTBadArgsPanic(t *testing.T) {
	x := make([]complex128, 512)
	for name, fn := range map[string]func(){
		"fftSize": func() { STFT(x, 100, 10, Hann(100), 1) },
		"hop":     func() { STFT(x, 128, 0, Hann(128), 1) },
		"window":  func() { STFT(x, 128, 32, Hann(64), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSpectrogramWriteCSV(t *testing.T) {
	x := tone(2048, 100e3, 1e6, 1)
	s := STFT(x, 256, 128, Hann(256), 1e6)
	var sb strings.Builder
	if err := s.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != s.Frames()+1 {
		t.Fatalf("got %d lines for %d frames", len(lines), s.Frames())
	}
	header := strings.Split(lines[0], ",")
	if header[0] != "time_s" || len(header) != 257 {
		t.Fatalf("header = %v...", header[:3])
	}
	// Frequencies ascend across the header.
	prev := math.Inf(-1)
	for _, h := range header[1:] {
		v, err := strconv.ParseFloat(h, 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Fatal("header frequencies not ascending")
		}
		prev = v
	}
	row := strings.Split(lines[1], ",")
	if len(row) != 257 {
		t.Fatalf("row has %d fields", len(row))
	}
}
