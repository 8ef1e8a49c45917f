package keylog

import (
	"math"
	"sort"

	"pmuleak/internal/dsp"
)

// This file implements the Berger-style dictionary attack the paper
// builds toward (§V-B): once keystroke timing and word boundaries are
// recovered, candidate words are ranked by how well their predicted
// inter-key timing (from the Salthouse effects) matches the observed
// intervals. Length alone narrows the dictionary; timing correlation
// ranks what remains.

// Candidate is one scored dictionary word.
type Candidate struct {
	Word string
	// Score combines length match and timing correlation; higher is
	// more likely. Range roughly [-1, 1].
	Score float64
}

// RankWord scores every dictionary word against one detected word group
// and returns candidates sorted best-first. Words whose length differs
// from the group are excluded (the attack assumes word segmentation
// already happened; a length-tolerant variant would simply merge ranks
// across neighbouring lengths).
func RankWord(group []Keystroke, dictionary []string, cfg TypistConfig) []Candidate {
	n := len(group)
	if n == 0 {
		return nil
	}
	observed := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		observed = append(observed, group[i].Start-group[i-1].Start)
	}
	var out []Candidate
	for _, w := range dictionary {
		runes := []rune(w)
		if len(runes) != n {
			continue
		}
		score := 0.0
		if len(observed) >= 2 {
			predicted := make([]float64, 0, len(observed))
			for i := 1; i < len(runes); i++ {
				predicted = append(predicted, relativeInterval(runes[i-1], runes[i], cfg))
			}
			score = correlation(observed, predicted)
		}
		out = append(out, Candidate{Word: w, Score: score})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// correlation is the Pearson correlation of two equal-length series
// (0 when either side is constant).
func correlation(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	ma, mb := dsp.Mean(a), dsp.Mean(b)
	var num, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		num += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return num / math.Sqrt(va*vb)
}

// Rank reports the 1-based position of word in the candidate list, or 0
// when absent.
func Rank(candidates []Candidate, word string) int {
	for i, c := range candidates {
		if c.Word == word {
			return i + 1
		}
	}
	return 0
}

// CommonWords is a small built-in dictionary of frequent English words
// for demonstrations; real attacks load a full wordlist.
func CommonWords() []string {
	return []string{
		"the", "and", "for", "are", "but", "not", "you", "all", "can",
		"her", "was", "one", "our", "out", "day", "get", "has", "him",
		"his", "how", "man", "new", "now", "old", "see", "two", "way",
		"who", "boy", "did", "its", "let", "put", "say", "she", "too",
		"use", "that", "with", "have", "this", "will", "your", "from",
		"they", "know", "want", "been", "good", "much", "some", "time",
		"very", "when", "come", "here", "just", "like", "long", "make",
		"many", "more", "only", "over", "such", "take", "than", "them",
		"well", "were", "what", "word", "down", "side", "been", "call",
		"about", "other", "which", "their", "there", "first", "would",
		"these", "click", "price", "state", "email", "world", "music",
		"after", "video", "where", "books", "links", "years", "order",
		"items", "group", "under", "games", "could", "great", "hotel",
		"store", "terms", "right", "local", "those", "using", "phone",
		"forum", "based", "black", "check", "index", "being", "women",
		"today", "south", "pages", "found", "house", "photo", "power",
		"while", "three", "total", "place", "think", "north", "posts",
		"media", "water", "since", "guide", "board", "white", "small",
		"times", "sites", "level", "hours", "image", "title", "shall",
		"class", "still", "money", "every", "visit", "tools", "reply",
		"value", "press", "learn", "print", "stock", "point", "sales",
		"large", "table", "start", "model", "human", "movie", "march",
		"yahoo", "going", "study", "staff", "again", "april", "never",
		"users", "topic", "below", "party", "login", "legal", "quote",
		"story", "young", "field", "paper", "girls", "night", "texas",
		"poker", "issue", "range", "court", "audio", "light", "write",
		"offer", "given", "files", "event", "china", "needs", "might",
		"month", "major", "areas", "space", "cards", "child", "enter",
		"share", "added", "radio", "until", "color", "track", "least",
		"trade", "david", "green", "close", "drive", "short", "means",
		"daily", "beach", "costs", "style", "front", "parts", "early",
		"miles", "sound", "works", "rules", "final", "adult", "thing",
		"cheap", "third", "gifts", "cover", "often", "watch", "deals",
		"words", "heard", "horse", "staple", "battery", "correct",
	}
}
