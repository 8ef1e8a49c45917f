package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Timing on a shared VM. The hypervisor takes CPU time from this VM's
// vCPUs when its neighbours are busy (the steal column of /proc/stat);
// on the 2-vCPU host these figures come from, steal ran at up to a fifth
// of wall time and moved whole runs by a third. The benchmark times the
// program, not its neighbours: a timed interval is reported as its wall
// time minus the steal that fell in it, averaged over the vCPUs.

// stealEvery is the sampling period of the steal clock.
const stealEvery = 5 * time.Millisecond

// stealClock samples the VM's cumulative steal time in the background.
// A nil *stealClock (or one that cannot read /proc/stat) reports no
// steal, so intervals fall back to wall time.
type stealClock struct {
	mu    sync.Mutex
	at    []time.Time
	steal []time.Duration // cumulative steal per vCPU at at[i]
	stop  chan struct{}
	done  chan struct{}
}

// startStealClock starts the sampler; Stop ends it.
func startStealClock() *stealClock {
	c := &stealClock{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		t := time.NewTicker(stealEvery)
		defer t.Stop()
		for {
			if s, ok := readSteal(); ok {
				c.mu.Lock()
				c.at = append(c.at, time.Now())
				c.steal = append(c.steal, s)
				c.mu.Unlock()
			}
			select {
			case <-c.stop:
				return
			case <-t.C:
			}
		}
	}()
	return c
}

// Stop ends sampling and waits for the sampler to exit.
func (c *stealClock) Stop() {
	if c == nil {
		return
	}
	close(c.stop)
	<-c.done
}

// readSteal returns the VM's cumulative steal time per vCPU.
func readSteal() (time.Duration, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, false
	}
	// /proc/stat counts in USER_HZ ticks, 100 per second on Linux.
	return time.Duration(ticks) * 10 * time.Millisecond / time.Duration(runtime.NumCPU()), true
}

// stealAt interpolates the cumulative steal at t.
func (c *stealClock) stealAt(t time.Time) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.at)
	if n == 0 {
		return 0
	}
	i := sort.Search(n, func(i int) bool { return !c.at[i].Before(t) })
	switch {
	case i == 0:
		return c.steal[0]
	case i == n:
		return c.steal[n-1]
	}
	span := c.at[i].Sub(c.at[i-1])
	frac := float64(t.Sub(c.at[i-1])) / float64(span)
	return c.steal[i-1] + time.Duration(frac*float64(c.steal[i]-c.steal[i-1]))
}

// ran returns how long the VM ran between start and end: wall time less
// the steal in between.
func (c *stealClock) ran(start, end time.Time) time.Duration {
	d := end.Sub(start)
	if c == nil {
		return d
	}
	return max(d-(c.stealAt(end)-c.stealAt(start)), 0)
}

// stolen returns the share of [start, end] the VM lost to steal.
func (c *stealClock) stolen(start, end time.Time) float64 {
	if c == nil || !end.After(start) {
		return 0
	}
	return 1 - float64(c.ran(start, end))/float64(end.Sub(start))
}
