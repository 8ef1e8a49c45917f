package keylog

import (
	"strings"
	"testing"

	"pmuleak/internal/xrand"
)

// typeWordGroups types a sentence and returns its true keystroke groups
// (split on the space keystrokes), for dictionary-attack tests that
// isolate the ranking from the detection pipeline.
func typeWordGroups(text string, cfg TypistConfig, seed int64) [][]Keystroke {
	events := Type(text, 0, cfg, xrand.New(seed))
	var groups [][]Keystroke
	var cur []Keystroke
	for _, ev := range events {
		if ev.Key == ' ' {
			if len(cur) > 0 {
				groups = append(groups, cur)
				cur = nil
			}
			continue
		}
		cur = append(cur, Keystroke{Start: ev.Press.Seconds(), End: ev.Release.Seconds()})
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

func TestCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if c := correlation(a, a); c < 0.999 {
		t.Fatalf("self-correlation = %v", c)
	}
	b := []float64{4, 3, 2, 1}
	if c := correlation(a, b); c > -0.999 {
		t.Fatalf("anti-correlation = %v", c)
	}
	if c := correlation(a, []float64{1, 1, 1, 1}); c != 0 {
		t.Fatalf("constant correlation = %v", c)
	}
	if c := correlation(a, a[:2]); c != 0 {
		t.Fatalf("length mismatch correlation = %v", c)
	}
}

func TestRankWordLengthFilter(t *testing.T) {
	group := make([]Keystroke, 5)
	for i := range group {
		group[i] = Keystroke{Start: float64(i) * 0.2}
	}
	cands := RankWord(group, []string{"the", "horse", "hotel", "battery"}, DefaultTypistConfig())
	if len(cands) != 2 {
		t.Fatalf("candidates = %v", cands)
	}
	for _, c := range cands {
		if len(c.Word) != 5 {
			t.Fatalf("wrong-length candidate %q", c.Word)
		}
	}
}

func TestRankWordEmptyGroup(t *testing.T) {
	if c := RankWord(nil, CommonWords(), DefaultTypistConfig()); c != nil {
		t.Fatalf("candidates from empty group: %v", c)
	}
}

func TestRank(t *testing.T) {
	c := []Candidate{{Word: "abc"}, {Word: "def"}}
	if Rank(c, "def") != 2 || Rank(c, "abc") != 1 || Rank(c, "zzz") != 0 {
		t.Fatal("Rank wrong")
	}
}

func TestDictionaryAttackBeatsChance(t *testing.T) {
	// Type dictionary words with low jitter and check that timing
	// correlation ranks the true word well above the same-length
	// median.
	cfg := DefaultTypistConfig()
	cfg.JitterFrac = 0.06
	cfg.PracticeGain = 0
	dict := CommonWords()

	words := []string{"world", "music", "horse", "staple", "battery", "correct", "there"}
	betterThanMedian := 0
	for i, w := range words {
		groups := typeWordGroups(w, cfg, int64(100+i))
		if len(groups) != 1 {
			t.Fatalf("grouping broke for %q", w)
		}
		cands := RankWord(groups[0], dict, cfg)
		r := Rank(cands, w)
		if r == 0 {
			t.Fatalf("%q missing from its own candidate list", w)
		}
		if r <= (len(cands)+1)/2 {
			betterThanMedian++
		}
	}
	if betterThanMedian < len(words)*2/3 {
		t.Fatalf("true word beat the median rank only %d/%d times",
			betterThanMedian, len(words))
	}
}

func TestCommonWordsSane(t *testing.T) {
	words := CommonWords()
	if len(words) < 150 {
		t.Fatalf("dictionary too small: %d", len(words))
	}
	for _, w := range words {
		if w == "" || strings.ContainsAny(w, " \t") {
			t.Fatalf("bad dictionary entry %q", w)
		}
	}
}
