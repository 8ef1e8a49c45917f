// Command perfbench is the repository benchmark. It generates a
// workload's inputs from a seed, drives them through the library's
// public entry points with tracing off to measure the end-to-end
// metrics, checks the outputs, and in a separate traced run times each
// layer's public calls from outside to measure the per-layer metrics.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 66, "failed": 0, "metrics": {"ops_per_s": {"value": 3.1, "unit": "ops/s"}, ...}}
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload covert-transfer --seed 1 --seconds 25 --trace 0
//
// Workloads: covert-transfer, keylog-session (see WORKLOADS.md).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are the command-line inputs of one run, and the clock it
// times with.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	clock    *stealClock
}

// metric is one named figure of a run.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is the outcome of one run.
type report struct {
	attempted, failed int
	problems          []string // reasons the outputs are not correct
	metrics           []metric
	notes             []string // context printed before the result line
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(options) (*report, error){
	"covert-transfer": runCovertTransfer,
	"keylog-session":  runKeylogSession,
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 25, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	w, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	o.trace = trace == 1
	o.clock = startStealClock()
	defer o.clock.Stop()

	fmt.Println(environment(o))
	rep, err := w(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, p := range rep.problems {
		fmt.Println("INCORRECT:", p)
	}
	for _, m := range rep.metrics {
		fmt.Printf("  %-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	line, err := resultLine(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(line)
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resultLine renders the report as the benchmark's JSON result.
func resultLine(r *report) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, metrics})
	return string(b), err
}

// environment describes what a result was measured on.
func environment(o options) string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("env: workload=%s seed=%d seconds=%d trace=%t go=%s nproc=%d GOMAXPROCS=%d GOGC=%s commit=%s",
		o.workload, o.seed, o.seconds, o.trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, commit)
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// timeSetups runs setup setupReps times and returns the median duration
// and the last repetition's products.
func timeSetups[T any](clock *stealClock, setup func() (T, error)) (T, time.Duration, error) {
	var out T
	var times sample
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return out, 0, err
		}
		times.add(clock.ran(start, time.Now()))
		out = v
	}
	return out, time.Duration(times.median() * float64(time.Millisecond)), nil
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS count (VmHWM) for this process, so the next peakRSSMB covers
// only what runs in between. Called outside timed sections.
func resetPeakRSS() {
	runtime.GC() // a second cycle frees what sync.Pools still held
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: peak RSS not reset: %v\n", err)
	}
}

// memStats reads the runtime's GC cycle count and cumulative heap
// allocation.
func memStats() (gc uint32, alloc uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.NumGC, m.TotalAlloc
}

// spansPath is where a traced run writes its spans.
func spansPath(o options) string {
	return fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", o.workload, o.seed)
}
