package dsp

import "sort"

// FindPeaks returns the indices of local maxima of x that are at least
// minHeight tall, enforcing a minimum distance of minDist samples
// between reported peaks (taller peaks win). Indices are returned in
// ascending order.
func FindPeaks(x []float64, minDist int, minHeight float64) []int {
	if minDist < 1 {
		minDist = 1
	}
	var candidates []int
	for i := range x {
		if x[i] < minHeight {
			continue
		}
		left := i == 0 || x[i] > x[i-1]
		// Treat plateau edges as peaks only at their left edge by
		// requiring a strict rise on the left and a non-rise on the
		// right.
		right := i == len(x)-1 || x[i] >= x[i+1]
		if left && right {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	// Greedy suppression: keep taller peaks first. order holds
	// positions in candidates, which is sorted by index, so a kept
	// peak suppresses just the candidates on either side of its
	// position that lie within minDist of it.
	order := make([]int, len(candidates))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := candidates[order[a]], candidates[order[b]]
		if x[pa] != x[pb] {
			return x[pa] > x[pb]
		}
		return pa < pb
	})
	kept := make([]int, 0, len(order))
	suppressed := make([]bool, len(candidates))
	for _, c := range order {
		if suppressed[c] {
			continue
		}
		p := candidates[c]
		kept = append(kept, p)
		for l := c - 1; l >= 0 && p-candidates[l] < minDist; l-- {
			suppressed[l] = true
		}
		for r := c + 1; r < len(candidates) && candidates[r]-p < minDist; r++ {
			suppressed[r] = true
		}
	}
	sort.Ints(kept)
	return kept
}

// ThresholdCrossings returns the [start, end) index intervals where x
// stays strictly above thr. An interval still open at the end of the
// signal is closed at len(x). The keystroke detector uses this to turn
// the band-energy trace into candidate key events.
func ThresholdCrossings(x []float64, thr float64) [][2]int {
	var out [][2]int
	start := -1
	for i, v := range x {
		if v > thr {
			if start == -1 {
				start = i
			}
		} else if start != -1 {
			out = append(out, [2]int{start, i})
			start = -1
		}
	}
	if start != -1 {
		out = append(out, [2]int{start, len(x)})
	}
	return out
}

// MergeIntervals merges intervals whose gap is at most maxGap samples.
// Intervals must be sorted by start, as ThresholdCrossings produces.
func MergeIntervals(iv [][2]int, maxGap int) [][2]int {
	if len(iv) == 0 {
		return nil
	}
	out := [][2]int{iv[0]}
	for _, cur := range iv[1:] {
		last := &out[len(out)-1]
		if cur[0]-last[1] <= maxGap {
			if cur[1] > last[1] {
				last[1] = cur[1]
			}
		} else {
			out = append(out, cur)
		}
	}
	return out
}

// FilterIntervals drops intervals shorter than minLen samples — the
// paper's 30 ms minimum-keystroke-duration filter.
func FilterIntervals(iv [][2]int, minLen int) [][2]int {
	var out [][2]int
	for _, v := range iv {
		if v[1]-v[0] >= minLen {
			out = append(out, v)
		}
	}
	return out
}
