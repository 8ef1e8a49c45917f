//go:build !race

package core

// synthesisProcs and synthesisLaptops: TestSynthesisMatchesSequential's
// full grid (trimmed under race, see grid_race_test.go).
var (
	synthesisProcs   = []int{1, 4}
	synthesisLaptops = 6
)
