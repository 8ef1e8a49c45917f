package covert

import (
	"testing"

	"pmuleak/internal/dsp"
	"pmuleak/internal/emchannel"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
	"pmuleak/internal/xrand"
)

func TestCodingString(t *testing.T) {
	if CodeNone.String() != "none" || CodeHamming74.String() != "hamming74" ||
		CodeParity.String() != "parity" {
		t.Fatal("coding names wrong")
	}
	if Coding(9).String() != "Coding(9)" {
		t.Fatal("unknown coding string")
	}
}

func TestTXConfigValidate(t *testing.T) {
	if err := DefaultTXConfig(100 * sim.Microsecond).Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	bad := DefaultTXConfig(100 * sim.Microsecond)
	bad.LoopPeriod = 0
	if bad.Validate() == nil {
		t.Error("zero LoopPeriod accepted")
	}
	bad = DefaultTXConfig(100 * sim.Microsecond)
	bad.SleepPeriod = -1
	if bad.Validate() == nil {
		t.Error("negative SleepPeriod accepted")
	}
	bad = DefaultTXConfig(100 * sim.Microsecond)
	bad.Code = CodeParity
	bad.ParityBlock = 0
	if bad.Validate() == nil {
		t.Error("zero ParityBlock accepted")
	}
	bad = DefaultTXConfig(100 * sim.Microsecond)
	bad.Preamble = []byte{1, 2}
	if bad.Validate() == nil {
		t.Error("non-bit preamble accepted")
	}
}

func TestBitPeriod(t *testing.T) {
	cfg := DefaultTXConfig(100 * sim.Microsecond)
	if got := cfg.BitPeriod(); got != 200*sim.Microsecond {
		t.Fatalf("BitPeriod = %v", got)
	}
}

func TestEncodeFrameStructure(t *testing.T) {
	cfg := DefaultTXConfig(100 * sim.Microsecond)
	cfg.Code = CodeNone
	payload := []byte{1, 0, 1, 1}
	frame := EncodeFrame(payload, cfg)
	if len(frame) != len(cfg.Preamble)+4+len(cfg.Postamble) {
		t.Fatalf("frame length = %d", len(frame))
	}
	for i, b := range cfg.Postamble {
		if frame[len(cfg.Preamble)+4+i] != b {
			t.Fatal("postamble not appended verbatim")
		}
	}
	for i, b := range cfg.Preamble {
		if frame[i] != b {
			t.Fatal("preamble not prepended verbatim")
		}
	}
}

func TestEncodeDecodeRoundTripAllCodes(t *testing.T) {
	rng := xrand.New(1)
	payload := rng.Bits(64)
	for _, code := range []Coding{CodeNone, CodeParity, CodeHamming74} {
		cfg := DefaultTXConfig(100 * sim.Microsecond)
		cfg.Code = code
		frame := EncodeFrame(payload, cfg)
		got, corrections := DecodePayloadN(frame[len(cfg.Preamble):], cfg, len(payload))
		if corrections != 0 {
			t.Errorf("%v: spurious corrections", code)
		}
		if len(got) != len(payload) {
			t.Fatalf("%v: decoded %d bits, want %d", code, len(got), len(payload))
		}
		for i := range payload {
			if got[i] != payload[i] {
				t.Fatalf("%v: payload mismatch at %d", code, i)
			}
		}
	}
}

func TestFindPreamble(t *testing.T) {
	pre := DefaultPreamble()
	bits := append(append([]byte{0, 0, 1}, pre...), 1, 0, 1, 1)
	start, ok := FindPreamble(bits, pre, 2)
	if !ok || start != 3+len(pre) {
		t.Fatalf("start=%d ok=%v", start, ok)
	}
	// With one flipped preamble bit it still syncs.
	bits[5] ^= 1
	if _, ok := FindPreamble(bits, pre, 2); !ok {
		t.Fatal("tolerant sync failed")
	}
	// Garbage does not sync.
	if _, ok := FindPreamble([]byte{0, 0, 0, 0, 0, 0}, pre, 1); ok {
		t.Fatal("synced on garbage")
	}
}

func TestFindPreambleEmpty(t *testing.T) {
	if _, ok := FindPreamble(nil, DefaultPreamble(), 3); ok {
		t.Fatal("synced on empty stream")
	}
	if _, ok := FindPreamble([]byte{1, 0}, nil, 0); ok {
		t.Fatal("synced with empty preamble")
	}
}

func TestRXConfigValidate(t *testing.T) {
	if err := DefaultRXConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	mutations := []func(*RXConfig){
		func(c *RXConfig) { c.NumHarmonics = 0 },
		func(c *RXConfig) { c.MinBitPeriod = 0 },
		func(c *RXConfig) { c.CarrierMinZ = 0 },
	}
	for i, mutate := range mutations {
		cfg := DefaultRXConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// activeTrace builds a Y trace with bursts at every multiple of period
// so the active-region clipper sees transmission everywhere.
func activeTrace(n, period int) []float64 {
	y := make([]float64, n)
	for i := 0; i < n; i += period {
		for j := i; j < i+period/8 && j < n; j++ {
			y[j] = 1
		}
	}
	return y
}

func TestFillGaps(t *testing.T) {
	starts := []int{0, 100, 310, 400} // one missing start near 200
	filled, inserted := fillGaps(starts, 100, 100, 2, 1, false, nil)
	if inserted != 1 {
		t.Fatalf("inserted = %d", inserted)
	}
	if len(filled) != 5 {
		t.Fatalf("filled = %v", filled)
	}
	if filled[2] < 190 || filled[2] > 215 {
		t.Fatalf("synthetic start at %d", filled[2])
	}
}

func TestFillGapsNoGaps(t *testing.T) {
	starts := []int{0, 100, 200}
	filled, inserted := fillGaps(starts, 100, 100, 2, 1, false, nil)
	if inserted != 0 || len(filled) != 3 {
		t.Fatalf("filled=%v inserted=%d", filled, inserted)
	}
	if f, n := fillGaps(nil, 100, 100, 2, 1, false, nil); f != nil || n != 0 {
		t.Fatal("empty input mishandled")
	}
}

func TestClipToActiveDropsTrailingEdges(t *testing.T) {
	// Activity covers the first three periods; a stray edge at 800
	// sits in silence and must be dropped.
	y := activeTrace(300, 100)
	y = append(y, make([]float64, 600)...)
	starts := []int{0, 100, 200, 800}
	clipped := clipToActive(starts, y, 100)
	if len(clipped) != 3 {
		t.Fatalf("clipped = %v, want the three active starts", clipped)
	}
}

func TestClipToActiveKeepsAllWhenActive(t *testing.T) {
	y := activeTrace(500, 100)
	starts := []int{0, 100, 200, 300, 400}
	clipped := clipToActive(starts, y, 100)
	if len(clipped) != len(starts) {
		t.Fatalf("clipped = %v", clipped)
	}
	if c := clipToActive(nil, y, 100); c != nil {
		t.Fatal("nil starts mishandled")
	}
	if c := clipToActive(starts, nil, 100); c != nil {
		t.Fatal("nil trace mishandled")
	}
}

func TestFillGapsHonorsMaxGap(t *testing.T) {
	// The gap spans more than maxFillGap periods: the stream truncates.
	starts := []int{0, 100, 100 * (maxFillGap + 2)}
	filled, inserted := fillGaps(starts, 100, 100, 2, 1, false, nil)
	if inserted != 0 || len(filled) != 2 {
		t.Fatalf("filled=%v inserted=%d", filled, inserted)
	}
}

func TestEvenAtLeast(t *testing.T) {
	cases := [][2]int{{0, 2}, {1, 2}, {2, 2}, {3, 4}, {10, 10}, {11, 12}}
	for _, c := range cases {
		if got := evenAtLeast(c[0]); got != c[1] {
			t.Errorf("evenAtLeast(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestAirtimeEstimateCoversActualRun(t *testing.T) {
	prof := laptop.Reference()
	sys := laptop.NewSystem(prof, 3)
	defer sys.Close()
	txCfg := DefaultTXConfig(prof.DefaultSleepPeriod)
	bits := xrand.New(4).Bits(100)
	run := SpawnTransmitter(sys.Kernel(), bits, txCfg)
	budget := AirtimeEstimate(bits, txCfg, prof.Kernel)
	sys.Run(budget)
	if run.End == 0 {
		t.Fatal("transmitter did not finish within the airtime estimate")
	}
	if run.Airtime() > budget {
		t.Fatalf("airtime %v exceeded estimate %v", run.Airtime(), budget)
	}
}

// runLink performs a full transmit -> emanate -> propagate -> acquire ->
// demodulate cycle and returns the measurement.
func runLink(t *testing.T, prof laptop.Profile, payloadBits int, seed int64,
	chanCfg emchannel.Config, ant sdr.Antenna) (Measurement, *Demod, *TxRun, []byte) {
	t.Helper()
	sys := laptop.NewSystem(prof, seed)
	defer sys.Close()

	txCfg := DefaultTXConfig(prof.DefaultSleepPeriod)
	payload := xrand.New(seed + 1000).Bits(payloadBits)
	frame := EncodeFrame(payload, txCfg)
	run := SpawnTransmitter(sys.Kernel(), frame, txCfg)

	horizon := AirtimeEstimate(frame, txCfg, prof.Kernel)
	sys.Run(horizon)
	plan := sys.DefaultPlan()
	field := sys.Emanations(horizon, plan)

	rng := xrand.New(seed + 2000)
	field = emchannel.Apply(field, plan.SampleRate, chanCfg, rng)

	sdrCfg := sdr.DefaultConfig()
	sdrCfg.Antenna = ant
	cap := sdr.Acquire(field, plan.CenterFreqHz, sdrCfg, rng.Fork())

	rxCfg := DefaultRXConfig()
	rxCfg.ExpectedF0 = prof.VRM.SwitchingFreqHz
	rxCfg.MinBitPeriod = txCfg.BitPeriod() / 2
	d := Demodulate(cap, rxCfg)
	return Measure(run, d, txCfg, payload), d, run, payload
}

func TestEndToEndNearFieldLink(t *testing.T) {
	m, d, run, _ := runLink(t, laptop.Reference(), 96, 11,
		emchannel.DefaultConfig(), sdr.CoilProbe)
	if len(d.Bits) == 0 {
		t.Fatal("no bits decoded")
	}
	if m.ErrorRate() > 0.03 {
		t.Fatalf("near-field error rate = %v (%v), want < 3%%", m.ErrorRate(), m)
	}
	if !m.PayloadOK {
		t.Fatal("payload did not synchronize")
	}
	// A single insertion shifts the downstream Hamming blocks, so the
	// payload BER tolerance is looser than the channel's.
	if m.PayloadBER > 0.06 {
		t.Fatalf("payload BER = %v", m.PayloadBER)
	}
	// Bit rate should be in the multi-kbps range for a Linux laptop.
	if run.BitRate() < 2000 {
		t.Fatalf("bit rate = %v bps, want kbps-class", run.BitRate())
	}
}

func TestEndToEndIntermediatesPopulated(t *testing.T) {
	_, d, _, _ := runLink(t, laptop.Reference(), 48, 12,
		emchannel.DefaultConfig(), sdr.CoilProbe)
	if len(d.Y) == 0 || len(d.Conv) == 0 || len(d.Starts) < 10 {
		t.Fatalf("intermediates missing: y=%d conv=%d starts=%d",
			len(d.Y), len(d.Conv), len(d.Starts))
	}
	if len(d.RawDistances) < 5 {
		t.Fatal("no distance statistics")
	}
	if d.SignalingTime <= 0 {
		t.Fatal("no signaling time estimate")
	}
	if d.Threshold <= 0 {
		t.Fatal("no power threshold")
	}
	// Signaling time should be near the configured bit period.
	bp := DefaultTXConfig(laptop.Reference().DefaultSleepPeriod).BitPeriod().Seconds()
	if d.SignalingTime < 0.7*bp || d.SignalingTime > 1.8*bp {
		t.Fatalf("signaling time %v vs bit period %v", d.SignalingTime, bp)
	}
}

func TestEndToEndPowersBimodal(t *testing.T) {
	_, d, _, _ := runLink(t, laptop.Reference(), 64, 13,
		emchannel.DefaultConfig(), sdr.CoilProbe)
	h := dsp.NewHistogram(d.Powers, 32).Smoothed(3)
	if _, _, ok := h.Modes(); !ok {
		t.Fatal("per-bit power distribution is not bimodal")
	}
}

func TestDemodulateTooShortCapture(t *testing.T) {
	cap := &sdr.Capture{IQ: make([]complex128, 100), SampleRate: 2.4e6, CenterFreqHz: hostileCenter}
	cfg := DefaultRXConfig()
	cfg.ExpectedF0 = hostileF0
	d := Demodulate(cap, cfg)
	if len(d.Bits) != 0 {
		t.Fatal("bits from an empty capture")
	}
}

func TestDemodulateSilence(t *testing.T) {
	rng := xrand.New(14)
	iq := make([]complex128, 1<<16)
	for i := range iq {
		iq[i] = complex(rng.Normal(0, 0.01), rng.Normal(0, 0.01))
	}
	d := demod(iq)
	// Pure noise must not produce a confident long bit stream.
	if len(d.Bits) > 20 {
		t.Fatalf("decoded %d bits from pure noise", len(d.Bits))
	}
}

func TestMeasureWithoutPayload(t *testing.T) {
	run := &TxRun{Bits: []byte{1, 0, 1}, Start: 0, End: sim.Millisecond}
	d := &Demod{Bits: []byte{1, 0, 1}}
	m := Measure(run, d, DefaultTXConfig(100*sim.Microsecond), nil)
	if m.Corrections != -1 || m.PayloadOK {
		t.Fatalf("payload fields should be unset: %+v", m)
	}
	if m.TransmitRate != 3000 {
		t.Fatalf("TransmitRate = %v", m.TransmitRate)
	}
}

func TestAverage(t *testing.T) {
	runs := []Measurement{
		{TransmitRate: 1000, SignalingTime: 1, PayloadOK: true},
		{TransmitRate: 3000, SignalingTime: 3, PayloadOK: true},
	}
	avg := Average(runs)
	if avg.TransmitRate != 2000 || avg.SignalingTime != 2 || !avg.PayloadOK {
		t.Fatalf("avg = %+v", avg)
	}
	if got := Average(nil); got.TransmitRate != 0 {
		t.Fatal("empty average nonzero")
	}
}

func TestTxRunBitRateZeroDivision(t *testing.T) {
	run := &TxRun{Bits: []byte{1}}
	if run.BitRate() != 0 {
		t.Fatal("BitRate without End should be 0")
	}
}

func TestWindowsLaptopSlowerThanLinux(t *testing.T) {
	win, _ := laptop.ByModel("Dell Precision 7290")
	mWin, _, runWin, _ := runLink(t, win, 48, 15, emchannel.DefaultConfig(), sdr.CoilProbe)
	mLin, _, runLin, _ := runLink(t, laptop.Reference(), 48, 15, emchannel.DefaultConfig(), sdr.CoilProbe)
	if runWin.BitRate() >= runLin.BitRate()/2 {
		t.Fatalf("Windows rate %v not well below Linux rate %v",
			runWin.BitRate(), runLin.BitRate())
	}
	if mWin.ErrorRate() > 0.05 || mLin.ErrorRate() > 0.05 {
		t.Fatalf("error rates too high: win %v lin %v", mWin.ErrorRate(), mLin.ErrorRate())
	}
}

func TestInterleavedFrameRoundTrip(t *testing.T) {
	cfg := DefaultTXConfig(100 * sim.Microsecond)
	cfg.InterleaveDepth = 7
	payload := xrand.New(70).Bits(96)
	frame := EncodeFrame(payload, cfg)
	inner := frame[len(cfg.Preamble) : len(frame)-len(cfg.Postamble)]
	got, corrections := DecodePayloadN(inner, cfg, len(payload))
	if corrections != 0 {
		t.Fatalf("spurious corrections %d", corrections)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestInterleavedFrameSurvivesBurst(t *testing.T) {
	cfg := DefaultTXConfig(100 * sim.Microsecond)
	cfg.InterleaveDepth = 7
	payload := xrand.New(71).Bits(96)
	frame := EncodeFrame(payload, cfg)
	inner := append([]byte(nil), frame[len(cfg.Preamble):len(frame)-len(cfg.Postamble)]...)
	for i := 40; i < 47; i++ { // 7-bit burst on the air
		inner[i] ^= 1
	}
	got, corrections := DecodePayloadN(inner, cfg, len(payload))
	if corrections != 7 {
		t.Fatalf("corrections = %d, want 7 (one per codeword)", corrections)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("burst not corrected at %d", i)
		}
	}
	// Contrast: the same burst without interleaving corrupts payload bits.
	plainCfg := cfg
	plainCfg.InterleaveDepth = 0
	plainFrame := EncodeFrame(payload, plainCfg)
	plainInner := append([]byte(nil),
		plainFrame[len(cfg.Preamble):len(plainFrame)-len(cfg.Postamble)]...)
	for i := 40; i < 47; i++ {
		plainInner[i] ^= 1
	}
	plainGot, _ := DecodePayloadN(plainInner, plainCfg, len(payload))
	diff := 0
	for i := range payload {
		if plainGot[i] != payload[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("bare Hamming should have failed on the burst")
	}
}
