//go:build race

package core

// synthesisProcs and synthesisLaptops under race: the staged render on
// its own goroutine beside the walk, for two laptops. The point of the
// -race pass is the walk/render/stage hand-over, not the laptop grid;
// the !race run covers all six laptops at GOMAXPROCS 1 and 4.
var (
	synthesisProcs   = []int{4}
	synthesisLaptops = 2
)
