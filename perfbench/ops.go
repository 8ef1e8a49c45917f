package main

import (
	"fmt"
	"math"
	"strings"

	"pmuleak/internal/core"
	"pmuleak/internal/covert"
	"pmuleak/internal/emchannel"
	"pmuleak/internal/faults"
	"pmuleak/internal/kernel"
	"pmuleak/internal/keylog"
	"pmuleak/internal/laptop"
	"pmuleak/internal/sdr"
	"pmuleak/internal/sim"
	"pmuleak/internal/xrand"
)

// Inputs are generated in rounds. A round is a fixed design of op
// shapes whose parameters (which laptop of an OS family takes which
// shape, distances, fault intensities, variant kinds) cycle with the
// round number, and whose op order is fixed per round; the seed draws
// every op's own seed (payload bits, typed text, noise). Round r
// therefore costs about the same at every seed, and a run's figures do
// not depend on which shapes a seed happened to favour.

// Every op pins CovertConfig.Code, PayloadBits and KeylogConfig.Words.
// Code's zero value is CodeNone, not the Hamming(7,4) its doc comment
// promises; pinning CodeHamming74 keeps the workload fixed when that
// default is corrected.
const pinnedCode = covert.CodeHamming74

// covertDesign pairs two shapes per payload size. Each OS family (two
// laptops) runs all three pairs in every round: 18 groups, each a fresh
// transmitter (a trace-cache miss), six of them in the robustness shape.
var covertDesign = []struct {
	bits   int
	shapes [2]string
}{
	{96, [2]string{"table2", "robustness"}},
	{256, [2]string{"table3", "robustness"}},
	{512, [2]string{"table2", "nlos"}},
}

// covertVariants is how many receiver-side variants replay a group's
// transmitter (trace-cache hits): four per round, on Linux and macOS
// captures, one of them faulted. A round is 22 ops, 4 of them hits (18%)
// and 7 faulted (32%), the shares of paperbench -quick.
func covertVariants(family kernel.OSKind, bits int, shape string) int {
	switch {
	case family == kernel.Linux && bits == 96 && shape == "robustness":
		return 1
	case family == kernel.Linux && bits == 256 && shape == "table3":
		return 1
	case family == kernel.MacOS && bits == 256 && shape == "table3":
		return 2
	}
	return 0
}

var variantKinds = []string{"distance", "wall", "antenna", "noise", "harmonics"}

// Keylog rounds type one random-word session on each laptop, the word
// counts and placements rotating over the laptops from round to round,
// plus one given-text session with the finer STFT the dictionary attack
// uses.
var (
	keylogWords  = []int{3, 5, 7, 9, 12, 15}
	keylogShapes = []string{"table4-10cm", "table4-10cm", "table4-2m", "table4-wall", "robust-plain", "robust-gapaware"}
)

const (
	givenTextWords = 6
	// gainStepRatePerS matches the robustness experiment's AGC event rate.
	gainStepRatePerS = 100
)

// textLen is the pinned length of a session of n words: the mean length
// of core's random text (words of 1-3 syllables of 2.3 letters on
// average, and the spaces), which six common words also reach. A word
// count is then the same amount of typing at every seed; left to the
// seed, the text of a 7-word session varied by about 13% in length.
func textLen(words int) int { return int(math.Round(5.6*float64(words) - 1)) }

// seedStep separates the candidate seeds sessionSeed tries, far beyond
// the opSeed range of one run, so two ops never share a seed.
const seedStep = 1 << 32

// sessionSeed returns the first testbed seed base + k·seedStep whose
// random text, as core draws it from the seed, is textLen(words) long.
func sessionSeed(base int64, words int) int64 {
	for s := base; ; s += seedStep {
		if len(keylog.RandomWords(words, xrand.New(s+wordsSeedOffset))) == textLen(words) {
			return s
		}
	}
}

// covertOp is one covert transfer. Ops of one group share every
// transmitter-side input and differ only at the receiver.
type covertOp struct {
	fresh  bool // first op of its group: the transmitter is simulated
	shape  string
	model  string // profile model, for reports
	tb     *core.Testbed
	cfg    core.CovertConfig
	detail string
}

// keylogOp is one keystroke-logging session.
type keylogOp struct {
	shape  string
	model  string
	tb     *core.Testbed
	cfg    core.KeylogConfig
	detail string
}

// roundSeed gives each round of each workload its own stream.
func roundSeed(seed int64, workload string, round int) int64 {
	h := int64(0)
	for _, c := range workload {
		h = h*31 + int64(c)
	}
	return seed*1_000_003 + h%1000*10_007 + int64(round)
}

// opSeed is the testbed seed of group g of round r. Warm-up ops use
// negative rounds, so they never share a transmitter with a timed op.
func opSeed(seed int64, r, g int) int64 { return seed*100_000 + int64(r)*100 + int64(g) }

func testbed(p laptop.Profile, seed int64, opts ...core.Option) *core.Testbed {
	return core.NewTestbed(append([]core.Option{core.WithLaptop(p), core.WithSeed(seed)}, opts...)...)
}

// distances are Table III's loop-antenna distances in meters.
var distances = []float64{0.5, 1, 1.5, 2, 2.5}

// placement returns the receiver-side options of a shape; k picks the
// Table III distance.
func placement(shape string, k int) ([]core.Option, string) {
	switch shape {
	case "table3":
		d := distances[k%len(distances)]
		return []core.Option{core.WithAntenna(sdr.LoopLA390), core.WithDistance(d)}, fmt.Sprintf("loop@%gm", d)
	case "nlos", "table4-wall":
		return []core.Option{
			core.WithDistance(1.5), core.WithWall(15), core.WithAntenna(sdr.LoopLA390),
			core.WithInterference(emchannel.OfficePrinter(0.002), emchannel.Refrigerator(0.0015), emchannel.OfficeBroadband(0.001)),
		}, "loop@1.5m+wall"
	case "table4-2m":
		return []core.Option{core.WithDistance(2), core.WithAntenna(sdr.LoopLA390)}, "loop@2m"
	}
	return nil, "coil@10cm"
}

// covertFaults is point k of the robustness experiment's faulted grid:
// three drop rates by two clock drifts by two gain-step sizes.
func covertFaults(k int) faults.Config {
	drift := []float64{0, 200}[k/3%2]
	fc := faults.Config{
		DropRatePerS: []float64{100, 300, 800}[k%3],
		ClockPPM:     drift,
		DriftPPMPerS: drift / 2,
	}
	if k/6%2 == 1 {
		fc.GainStepRatePerS, fc.GainStepMaxDB = gainStepRatePerS, 6
	}
	return fc
}

// families groups the six laptops by OS family, in a fixed order.
func families() [][]laptop.Profile {
	var out [][]laptop.Profile
	for _, family := range []kernel.OSKind{kernel.Linux, kernel.MacOS, kernel.Windows} {
		var fam []laptop.Profile
		for _, p := range laptop.Profiles() {
			if p.OS() == family {
				fam = append(fam, p)
			}
		}
		out = append(out, fam)
	}
	return out
}

// groupsPerRound is the covert design's group count: three OS families
// of two laptops, three payload sizes each.
const groupsPerRound = 18

// covertRound generates round r of the covert-transfer workload.
func covertRound(seed int64, r int) []*covertOp {
	var groups [][]*covertOp
	for f, fam := range families() {
		for d, pair := range covertDesign {
			for k, p := range fam {
				g := len(groups)
				shape := pair.shapes[mod(k+f+d+r, len(pair.shapes))]
				groups = append(groups, covertGroup(p, opSeed(seed, r, g), pair.bits, shape, mod(r*groupsPerRound+g, 60)))
			}
		}
	}
	var ops []*covertOp
	for _, g := range roundOrder(r, len(groups)) {
		ops = append(ops, groups[g]...)
	}
	return ops
}

// covertGroup is one fresh transfer followed by its receiver-side
// variants; k (0 <= k < 60, a multiple of every parameter list's
// length) cycles the group's free parameters.
func covertGroup(p laptop.Profile, seed int64, bits int, shape string, k int) []*covertOp {
	opts, where := placement(shape, k)
	cfg := core.CovertConfig{
		SleepPeriod: p.DefaultSleepPeriod,
		PayloadBits: bits,
		Code:        pinnedCode,
	}
	if shape == "robustness" {
		cfg.Interleave = 7
		cfg.Faults = covertFaults(k)
		cfg.RXResync = true
		cfg.RXCarrierRetries = 3
	}
	fresh := &covertOp{
		fresh: true, shape: shape, model: p.Model, tb: testbed(p, seed, opts...), cfg: cfg,
		detail: fmt.Sprintf("%d bits %s", bits, where),
	}
	ops := []*covertOp{fresh}
	for v := 0; v < covertVariants(p.OS(), bits, shape); v++ {
		kind := variantKinds[(k+v)%len(variantKinds)]
		vopts, vcfg := append([]core.Option(nil), opts...), cfg
		switch kind {
		case "distance":
			vopts = append(vopts, core.WithAntenna(sdr.LoopLA390), core.WithDistance(distances[(k+v+2)%len(distances)]))
		case "wall":
			vopts = append(vopts, core.WithWall(15))
		case "antenna":
			if fresh.tb.Radio.Antenna == sdr.LoopLA390 {
				vopts = append(vopts, core.WithAntenna(sdr.CoilProbe))
			} else {
				vopts = append(vopts, core.WithAntenna(sdr.LoopLA390))
			}
		case "noise":
			vopts = append(vopts, core.WithNoise(4*emchannel.DefaultConfig().NoiseSigma))
		case "harmonics":
			vcfg.RXHarmonics = 1 + 2*((k+v)%2) // 1 or 3 against the default 2
		}
		ops = append(ops, &covertOp{
			shape: shape, model: p.Model, tb: testbed(p, seed, vopts...), cfg: vcfg,
			detail: fresh.detail + " variant " + kind,
		})
	}
	return ops
}

// keylogRound generates round r of the keylog-session workload.
func keylogRound(seed int64, r int) []*keylogOp {
	rng := xrand.New(roundSeed(seed, "keylog-session", r))
	profiles := laptop.Profiles()
	var ops []*keylogOp
	for i, p := range profiles {
		shape := keylogShapes[mod(i+2*r, len(keylogShapes))]
		opts, where := placement(shape, 0)
		cfg := core.KeylogConfig{Words: keylogWords[mod(i+r, len(keylogWords))]}
		switch shape {
		case "robust-plain", "robust-gapaware":
			cfg.Faults = faults.Config{GainStepRatePerS: 2, GainStepMaxDB: []float64{6, 12}[mod(r, 2)]}
			cfg.GapAware = shape == "robust-gapaware"
		}
		ops = append(ops, &keylogOp{
			shape: shape, model: p.Model, tb: testbed(p, sessionSeed(opSeed(seed, r, i), cfg.Words), opts...), cfg: cfg,
			detail: fmt.Sprintf("%d words %s", cfg.Words, where),
		})
	}
	ops = append(ops, givenTextOp(rng, profiles[mod(r, len(profiles))], opSeed(seed, r, len(profiles))))
	out := make([]*keylogOp, len(ops))
	for i, j := range roundOrder(r, len(ops)) {
		out[i] = ops[j]
	}
	return out
}

// roundOrder is the op order of round r: shuffled, the same at every
// seed, so what an op leaves in the trace cache and the heap for the
// next one does not vary with the seed.
func roundOrder(r, n int) []int { return xrand.New(int64(r)).Perm(n) }

// mod is the non-negative remainder (warm-up rounds are negative).
func mod(a, n int) int { return (a%n + n) % n }

// givenTextOp is the dictionary attack's session: common words typed at
// 2 m, detected with an 800 µs STFT window for finer keystroke timing.
// The words are drawn again until the text is textLen long.
func givenTextOp(rng *xrand.Source, p laptop.Profile, seed int64) *keylogOp {
	dict := keylog.CommonWords()
	w := make([]string, givenTextWords)
	for len(strings.Join(w, " ")) != textLen(givenTextWords) {
		for i := range w {
			w[i] = dict[rng.Intn(len(dict))]
		}
	}
	det := keylog.DefaultDetectorConfig()
	det.Window = 800 * sim.Microsecond
	opts, where := placement("table4-2m", 0)
	return &keylogOp{
		shape: "dictionary", model: p.Model, tb: testbed(p, seed, opts...),
		cfg:    core.KeylogConfig{Text: strings.Join(w, " "), Words: givenTextWords, Detector: &det},
		detail: fmt.Sprintf("given text %q %s", strings.Join(w, " "), where),
	}
}
