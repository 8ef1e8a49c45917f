package core

import (
	"pmuleak/internal/covert"
	"pmuleak/internal/stream"
)

// RunCovertStream is RunCovert with the demodulator replaced by the
// incremental stream receiver: the capture is fed to a
// stream.CovertReceiver in chunkSize-sample chunks and finalized. The
// result is byte-identical to RunCovert for every chunk size — the
// differential tests in internal/stream pin this — while the receiver
// itself never holds the raw capture (the daemon's reason to exist; here
// the capture is materialized anyway because the simulation produces it
// whole).
func (tb *Testbed) RunCovertStream(cfg CovertConfig, chunkSize int) (*CovertResult, error) {
	p := tb.PrepareCovert(cfg)
	defer p.Cap.Recycle()
	rx, err := stream.NewCovertReceiver(p.RXCfg, p.Cap.SampleRate, p.Cap.CenterFreqHz)
	if err != nil {
		return nil, err
	}
	demodSpan := stageDemod.Start()
	for _, chunk := range stream.Chunks(p.Cap.IQ, chunkSize) {
		rx.Push(chunk)
	}
	demod := rx.Finalize()
	demodSpan.End()
	return p.finish(demod), nil
}

// RunKeylogStream is RunKeylog with the detector replaced by the
// incremental stream detector, chunked the same way. Byte-identical to
// RunKeylog for every chunk size.
func (tb *Testbed) RunKeylogStream(cfg KeylogConfig, chunkSize int) (*KeylogResult, error) {
	p := tb.PrepareKeylog(cfg)
	defer p.Cap.Recycle()
	det, err := stream.NewKeylogDetector(p.DetCfg, p.Cap.SampleRate, p.Cap.CenterFreqHz)
	if err != nil {
		return nil, err
	}
	detSpan := stageDetect.Start()
	for _, chunk := range stream.Chunks(p.Cap.IQ, chunkSize) {
		det.Push(chunk)
	}
	detection := det.Finalize()
	detSpan.End()
	return p.finish(detection), nil
}

// CovertRXConfig returns the receiver config RunCovert hands the
// demodulator for this covert config — pure arithmetic over the profile
// and the transmitter settings, no simulation. PrepareCovert builds its
// RXCfg here, so the two cannot drift apart. The bit period depends
// only on the loop and sleep periods, which the transmitter trace never
// changes, so the default TX config stands in for the simulated one.
func (tb *Testbed) CovertRXConfig(cfg CovertConfig) covert.RXConfig {
	cfg.fill(tb)
	txCfg := covert.DefaultTXConfig(cfg.SleepPeriod)
	rxCfg := covert.DefaultRXConfig()
	rxCfg.ExpectedF0 = tb.Profile.VRM.SwitchingFreqHz
	rxCfg.MinBitPeriod = txCfg.BitPeriod() / 2
	rxCfg.Parallelism = cfg.Parallelism
	rxCfg.Resync = cfg.RXResync
	rxCfg.CarrierRetries = cfg.RXCarrierRetries
	if cfg.RXHarmonics > 0 {
		rxCfg.NumHarmonics = cfg.RXHarmonics
	}
	return rxCfg
}
