// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator and the sweep service, checks every
// output row, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as the last line of standard output.
//
// Run it through run.sh from the repository root, which builds this
// program and the wisync-server and wisync-worker binaries first:
//
//	bash perfbench/run.sh --workload golden --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are the command-line settings every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // repository root
	bin      string // directory holding wisync-server and wisync-worker
	tmp      string // scratch directory inside the checkout
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's outcome and human-readable notes.
type report struct {
	result
	notes []string
}

func newReport() *report {
	return &report{result: result{Correct: true, Metrics: make(map[string]metric)}}
}

func (r *report) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect and says why.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.note("INCORRECT: "+format, args...)
}

// tally counts one checked operation.
func (r *report) tally(key string, v verdict) {
	r.Attempted++
	if v.failed {
		r.Failed++
	}
	if !v.correct {
		r.fail("%s differs from its expected row", key)
	}
}

// workload is a runnable workload and the GOMAXPROCS it runs under (0
// keeps the default). The in-process workloads run on one P: a point's
// collector work then shares its core instead of depending on the second
// core, whose availability on a shared host varied enough to double the
// run-to-run spread of points_per_s on golden, at the same median. serve
// sets its own (see pinToOneCPU).
type workload struct {
	run   func(options, time.Time) (*report, error)
	procs int
}

var workloads = map[string]workload{
	"golden":      {runInproc, 1},
	"wired256":    {runInproc, 1},
	"wireless256": {runInproc, 1},
	"serve":       {runServe, 0},
}

func main() {
	start := time.Now()
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload: golden, wired256, wireless256 or serve")
	flag.Int64Var(&o.seed, "seed", 1, "seed for point order and fresh job seeds")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.bin, "bin", "", "directory with the wisync-server and wisync-worker binaries")
	flag.StringVar(&o.tmp, "tmp", "", "scratch directory (default <root>/.bench_build/tmp)")
	record := flag.String("record", "", "write the expected rows of a 256-core workload and exit")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if o.tmp == "" {
		o.tmp = filepath.Join(o.root, ".bench_build", "tmp")
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		fatal(err)
	}
	if *record != "" {
		if err := recordExpected(o, *record); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloads[o.workload]
	switch {
	case !ok:
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	case seconds < 1 || (trace != 0 && trace != 1):
		fatal(errors.New("-seconds must be >= 1 and -trace 0 or 1"))
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	fmt.Println(hostFacts())
	r, err := w.run(o, start)
	if err == nil {
		err = matchDeclared(filepath.Join(o.root, "BENCHMARK.json"), o.trace, r.Metrics)
	}
	if err != nil {
		fatal(err)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	printMetrics(r)
	line, err := encodeResult(r.result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// matchDeclared checks that a run reports exactly the metrics, with the
// units, that BENCHMARK.json declares: end_to_end untraced, per_layer
// traced.
func matchDeclared(path string, traced bool, got map[string]metric) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := bench.EndToEnd
	if traced {
		want = bench.PerLayer
	}
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok || m.Unit != d.Unit {
			return fmt.Errorf("metric %s (%s) declared in %s, run reported %+v", d.Name, d.Unit, path, m)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("run reported %d metrics, %s declares %d", len(got), path, len(want))
	}
	return nil
}

// encodeResult renders the result line, refusing values JSON cannot
// carry.
func encodeResult(r result) (string, error) {
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	b, err := json.Marshal(r)
	return string(b), err
}

// printMetrics lists the reported metrics by name with their unit.
func printMetrics(r *report) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("  %-28s %14.6g fraction (%d of %d attempted)\n", "failed_ratio", ratio, r.Failed, r.Attempted)
}

// hostFacts names the machine, so results from different hosts are never
// compared silently.
func hostFacts() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host nproc=%d GOMAXPROCS=%d cpu=%q go=%s loop_ms=%.2f",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version(), loopMS())
}

// loopMS times a fixed integer loop on one core: a reading of the host's
// speed at the start of the run, so drift between runs can be told apart
// from a change in the program.
func loopMS() float64 {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 50_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	loopSink = x
	return ms(time.Since(start))
}

var loopSink uint64

// resetPeakRSS restarts a process's peak resident set size (VmHWM) from
// its current resident set size.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}
