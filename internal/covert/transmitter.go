// Package covert implements the paper's covert channel: a user-level
// transmitter that encodes bits in the processor's power-state
// transitions (Fig. 3), and a receiver that recovers them from the VRM's
// EM emanations using the batch-processing pipeline of §IV-B —
// multi-harmonic acquisition (Eq. 1), derivative-convolution edge
// detection (Fig. 5), median signaling-time estimation (Fig. 6),
// bimodal-threshold power labeling (Fig. 7, Eq. 2) — plus the channel
// metrics of §IV-C (BER, TR, insertion and deletion probabilities).
package covert

import (
	"fmt"

	"pmuleak/internal/ecc"
	"pmuleak/internal/kernel"
	"pmuleak/internal/sim"
)

// Coding selects the transmitter's error-control code.
type Coding int

const (
	// CodeNone sends raw bits.
	CodeNone Coding = iota
	// CodeParity appends an even-parity bit per block (detection only).
	CodeParity
	// CodeHamming74 uses the Hamming(7,4) code: minimum distance 3,
	// corrects one error per codeword — the paper's choice.
	CodeHamming74
)

// String names the coding.
func (c Coding) String() string {
	switch c {
	case CodeNone:
		return "none"
	case CodeParity:
		return "parity"
	case CodeHamming74:
		return "hamming74"
	}
	return fmt.Sprintf("Coding(%d)", int(c))
}

// DefaultPreamble is the synchronization header: interleaved ones and
// zeros for symbol-timing acquisition, a run of zeros, then a start
// marker — the structure §IV-C1 describes.
func DefaultPreamble() []byte {
	var p []byte
	for i := 0; i < 8; i++ {
		p = append(p, 1, 0)
	}
	p = append(p, 0, 0, 0, 0)
	p = append(p, 1, 1, 0, 1) // start-of-frame marker
	return p
}

// TXConfig parameterizes the transmitter program.
type TXConfig struct {
	// LoopPeriod is the busy-loop duration encoding a '1'
	// (LOOP_PERIOD in Fig. 3).
	LoopPeriod sim.Time
	// SleepPeriod is the base idle duration (SLEEP_PERIOD in Fig. 3):
	// a '1' sleeps this long after its busy loop, a '0' sleeps twice
	// this long (return-to-zero coding).
	SleepPeriod sim.Time
	// Preamble is prepended to every frame. Nil means no preamble.
	Preamble []byte
	// Postamble is appended after the coded payload. Ending the frame
	// with '1' bits gives the receiver a strong final edge, so a
	// payload that happens to end in zeros is still fully delimited.
	Postamble []byte
	// Code is the error-control code applied to the payload.
	Code Coding
	// ParityBlock is the data-block size for CodeParity.
	ParityBlock int
	// InterleaveDepth, when > 1, block-interleaves the coded payload
	// so a burst of channel errors spreads across that many codewords
	// (each then within the Hamming code's correction budget).
	InterleaveDepth int
}

// DefaultTXConfig returns the paper's setup for a given sleep period:
// LOOP_PERIOD chosen so active and idle periods have almost equal
// lengths, Hamming coding, standard preamble.
func DefaultTXConfig(sleep sim.Time) TXConfig {
	return TXConfig{
		LoopPeriod:  sleep,
		SleepPeriod: sleep,
		Preamble:    DefaultPreamble(),
		Postamble:   []byte{1, 1},
		Code:        CodeHamming74,
		ParityBlock: 8,
	}
}

// Validate reports configuration errors.
func (c TXConfig) Validate() error {
	if c.LoopPeriod <= 0 {
		return fmt.Errorf("covert: LoopPeriod must be positive")
	}
	if c.SleepPeriod <= 0 {
		return fmt.Errorf("covert: SleepPeriod must be positive")
	}
	if c.Code == CodeParity && c.ParityBlock <= 0 {
		return fmt.Errorf("covert: ParityBlock must be positive for parity coding")
	}
	if c.InterleaveDepth < 0 {
		return fmt.Errorf("covert: negative InterleaveDepth")
	}
	for _, b := range c.Preamble {
		if b > 1 {
			return fmt.Errorf("covert: preamble contains non-bit value %d", b)
		}
	}
	for _, b := range c.Postamble {
		if b > 1 {
			return fmt.Errorf("covert: postamble contains non-bit value %d", b)
		}
	}
	return nil
}

// BitPeriod estimates the nominal duration of one channel bit: both
// symbols take about LOOP+SLEEP (for '1') or 2*SLEEP (for '0').
func (c TXConfig) BitPeriod() sim.Time {
	one := c.LoopPeriod + c.SleepPeriod
	zero := 2 * c.SleepPeriod
	return (one + zero) / 2
}

// EncodeFrame converts payload bits into the on-air bit sequence:
// error-control coding applied, preamble prepended.
func EncodeFrame(payload []byte, cfg TXConfig) []byte {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	var coded []byte
	switch cfg.Code {
	case CodeParity:
		coded = ecc.EvenParity(payload, cfg.ParityBlock)
	case CodeHamming74:
		coded = (ecc.Hamming74{}).Encode(payload)
	default:
		coded = append([]byte(nil), payload...)
	}
	if cfg.InterleaveDepth > 1 {
		coded = ecc.Interleave(coded, cfg.InterleaveDepth)
	}
	frame := make([]byte, 0, len(cfg.Preamble)+len(coded)+len(cfg.Postamble))
	frame = append(frame, cfg.Preamble...)
	frame = append(frame, coded...)
	frame = append(frame, cfg.Postamble...)
	return frame
}

// CodedLen returns the number of coded bits EncodeFrame produces for a
// payload of the given bit count, before interleaving and framing.
func (c TXConfig) CodedLen(payloadBits int) int {
	switch c.Code {
	case CodeParity:
		blocks := (payloadBits + c.ParityBlock - 1) / c.ParityBlock
		return payloadBits + blocks
	case CodeHamming74:
		return (payloadBits + 3) / 4 * 7
	default:
		return payloadBits
	}
}

// InterleavedLen returns the on-air payload length (coded bits after
// interleaver padding) for a payload of the given bit count.
func (c TXConfig) InterleavedLen(payloadBits int) int {
	n := c.CodedLen(payloadBits)
	if c.InterleaveDepth > 1 {
		cols := (n + c.InterleaveDepth - 1) / c.InterleaveDepth
		return cols * c.InterleaveDepth
	}
	return n
}

// DecodePayloadN reverses EncodeFrame's coding stage (the preamble must
// already be stripped) for a received bit stream that may carry
// trailing bits (postamble, stray edges) after the payload, given the
// expected payload size in bits. It trims or zero-pads the stream to
// the exact on-air length before deinterleaving, which interleaved
// frames require. corrections reports corrected (Hamming) or
// detected-bad (parity) blocks.
func DecodePayloadN(coded []byte, cfg TXConfig, payloadBits int) (payload []byte, corrections int) {
	want := cfg.InterleavedLen(payloadBits)
	trimmed := make([]byte, want)
	copy(trimmed, coded)
	if cfg.InterleaveDepth > 1 {
		trimmed = ecc.Deinterleave(trimmed, cfg.InterleaveDepth, cfg.CodedLen(payloadBits))
	}
	payload, corrections = decodeCoded(trimmed, cfg)
	if len(payload) > payloadBits {
		payload = payload[:payloadBits]
	}
	return payload, corrections
}

func decodeCoded(coded []byte, cfg TXConfig) (payload []byte, corrections int) {
	switch cfg.Code {
	case CodeParity:
		return ecc.CheckEvenParity(coded, cfg.ParityBlock)
	case CodeHamming74:
		return (ecc.Hamming74{}).Decode(coded)
	default:
		return append([]byte(nil), coded...), 0
	}
}

// TxRun tracks one transmission: the on-air bits and when they went out.
type TxRun struct {
	Bits  []byte
	Start sim.Time
	// End is valid once the transmitter process has finished (i.e.
	// after the kernel has been Run past the frame's airtime).
	End sim.Time
}

// Airtime is the wall-clock (simulated) duration of the transmission.
func (r *TxRun) Airtime() sim.Time { return r.End - r.Start }

// BitRate is the achieved channel rate in bits per second.
func (r *TxRun) BitRate() float64 {
	if r.End <= r.Start {
		return 0
	}
	return float64(len(r.Bits)) / r.Airtime().Seconds()
}

// SpawnTransmitter starts the Fig. 3 transmitter program on the target
// kernel, sending the given on-air bits (from EncodeFrame).
//
// The body is a direct translation of the paper's C code: for each '1'
// bit keep the processor active for LOOP_PERIOD then usleep
// SLEEP_PERIOD (return-to-zero coding); for each '0' only usleep twice
// SLEEP_PERIOD. The per-bit housekeeping (reading the next bit) is the
// syscall overhead the kernel model charges around every sleep.
func SpawnTransmitter(k *kernel.Kernel, frameBits []byte, cfg TXConfig) *TxRun {
	return spawnTransmitter(k, -1, frameBits, cfg)
}

// SpawnTransmitterOn is SpawnTransmitter pinned to a specific core.
func SpawnTransmitterOn(k *kernel.Kernel, core int, frameBits []byte, cfg TXConfig) *TxRun {
	return spawnTransmitter(k, core, frameBits, cfg)
}

func spawnTransmitter(k *kernel.Kernel, core int, frameBits []byte, cfg TXConfig) *TxRun {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	run := &TxRun{Bits: frameBits}
	body := func(p *kernel.Proc) {
		run.Start = p.Now()
		for _, bit := range frameBits {
			if bit == 1 {
				p.Busy(cfg.LoopPeriod) // keeping the processor active
				p.Sleep(cfg.SleepPeriod)
			} else {
				p.Sleep(cfg.SleepPeriod * 2)
			}
		}
		run.End = p.Now()
	}
	if core >= 0 {
		k.SpawnOn("transmitter", core, body)
	} else {
		k.Spawn("transmitter", body)
	}
	return run
}

// AirtimeEstimate returns a safe upper bound on the simulated time
// needed to transmit the frame, including per-bit OS overheads. Use it
// to size the capture horizon.
func AirtimeEstimate(frameBits []byte, cfg TXConfig, kcfg kernel.Config) sim.Time {
	perBitOverhead := 2*kcfg.SyscallOverhead + kcfg.WakeupLatency +
		4*kcfg.WakeupJitterSigma + kcfg.TimerGranularity
	var total sim.Time
	for _, bit := range frameBits {
		if bit == 1 {
			total += cfg.LoopPeriod + cfg.SleepPeriod
		} else {
			total += 2 * cfg.SleepPeriod
		}
		total += perBitOverhead
	}
	// Headroom for scheduler interference.
	return total + total/10 + sim.Millisecond
}
