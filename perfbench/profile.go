package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// simPackages are the simulator layers that get their own cpu.* and
// alloc_mb.* metric. Other wisync packages and the benchmark's own code
// fall into "other"; standard-library packages outside the runtime into
// cpu.stdlib.
var simPackages = []string{
	"sim", "mem", "noc", "bmem", "wireless", "channel", "tone",
	"core", "syncprims", "kernels", "apps", "harness", "config",
}

// runtimeSplit lists the runtime buckets in the order a stack is tested
// against them: a runtime leaf under a collector frame is GC, else under
// an allocation frame is malloc, else under a map frame is maps.
var runtimeSplit = []struct {
	bucket   string
	prefixes []string
}{
	{"runtime_gc", []string{"runtime.gc", "runtime.GC", "runtime.bgsweep", "runtime.sweepone",
		"runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.wbBuf",
		"runtime.bulkBarrier", "runtime.deductSweepCredit", "runtime.(*gcWork)",
		"runtime.(*sweepLocked)", "runtime.(*mheap).reclaim"}},
	{"runtime_malloc", []string{"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
		"runtime.makeslice", "runtime.growslice", "runtime.makemap", "runtime.makechan",
		"runtime.rawstring", "runtime.rawbyteslice", "runtime.rawruneslice", "runtime.convT"}},
	{"runtime_maps", []string{"runtime.map", "internal/runtime/maps."}},
}

// cpuBuckets is every cpu.* bucket, so a run reports all of them even
// when a layer took no samples.
func cpuBuckets() []string {
	b := append([]string(nil), simPackages...)
	for _, r := range runtimeSplit {
		b = append(b, r.bucket)
	}
	return append(b, "runtime_other", "stdlib", "other")
}

// allocBuckets is every alloc_mb.* bucket.
func allocBuckets() []string { return append(append([]string(nil), simPackages...), "other") }

// funcPackage returns the import path of a symbol as pprof prints it:
// "wisync/internal/sim.(*Engine).Run" is in "wisync/internal/sim".
func funcPackage(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation brackets may hold dots
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// simBucket maps a wisync/internal package to its layer name, or "".
func simBucket(pkg string) string {
	rest, ok := strings.CutPrefix(pkg, "wisync/internal/")
	if !ok {
		return ""
	}
	rest, _, _ = strings.Cut(rest, "/")
	for _, p := range simPackages {
		if p == rest {
			return p
		}
	}
	return "other"
}

func isRuntime(pkg string) bool {
	switch pkg {
	case "runtime", "internal/bytealg", "internal/abi", "internal/cpu", "internal/goarch":
		return true
	}
	return strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// cpuBucket attributes a sample's self time: to the leaf's simulator
// layer, to a runtime bucket chosen by the stack, to stdlib, or to other.
// stack[0] is the leaf.
func cpuBucket(stack []string) string {
	pkg := funcPackage(stack[0])
	if b := simBucket(pkg); b != "" {
		return b
	}
	if !isRuntime(pkg) {
		if first, _, _ := strings.Cut(pkg, "/"); pkg != "main" && !strings.Contains(first, ".") &&
			first != "wisync" {
			return "stdlib"
		}
		return "other"
	}
	for _, r := range runtimeSplit {
		for _, fn := range stack {
			for _, p := range r.prefixes {
				if strings.HasPrefix(fn, p) {
					return r.bucket
				}
			}
		}
	}
	return "runtime_other"
}

// allocBucket attributes an allocation to the innermost simulator frame
// on its stack.
func allocBucket(stack []string) string {
	for _, fn := range stack {
		if b := simBucket(funcPackage(fn)); b != "" {
			return b
		}
	}
	return "other"
}

// sample is one stack from `go tool pprof -traces`, leaf first.
type sample struct {
	value int64
	stack []string
}

var (
	valueRE = regexp.MustCompile(`^\s*(-?\d+)(ns|B)\s+(\S.*)$`)
	totalRE = regexp.MustCompile(`Total samples = (\d+)ns`)
)

// parseTraces reads the text of `go tool pprof -traces -unit=ns|B`. It
// returns the samples and, for a CPU profile, the header's total (-1 when
// the header carries none).
func parseTraces(out []byte) ([]sample, int64, error) {
	var samples []sample
	total := int64(-1)
	var cur *sample
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m := totalRE.FindStringSubmatch(line); m != nil && cur == nil && len(samples) == 0 {
			total, _ = strconv.ParseInt(m[1], 10, 64)
			continue
		}
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		if m := valueRE.FindStringSubmatch(line); m != nil && cur == nil {
			v, err := strconv.ParseInt(m[1], 10, 64)
			if err != nil {
				return nil, 0, fmt.Errorf("pprof traces: %q: %w", line, err)
			}
			samples = append(samples, sample{value: v, stack: []string{m[3]}})
			cur = &samples[len(samples)-1]
			continue
		}
		if cur == nil {
			continue // header lines and sample labels ("bytes:  2.25kB")
		}
		cur.stack = append(cur.stack, trimmed)
	}
	return samples, total, sc.Err()
}

// aggregate sums sample values per bucket.
func aggregate(samples []sample, bucket func([]string) string) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range samples {
		out[bucket(s.stack)] += s.value
	}
	return out
}

// pprofTraces runs `go tool pprof -traces` on a profile; base, when set,
// is subtracted first.
func pprofTraces(profile, base, unit, index string) ([]sample, int64, error) {
	args := []string{"tool", "pprof", "-traces", "-unit=" + unit}
	if index != "" {
		args = append(args, "-sample_index="+index)
	}
	if base != "" {
		args = append(args, "-base", base)
	}
	cmd := exec.Command("go", append(args, profile)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof %s: %w: %s", profile, err, stderr.String())
	}
	return parseTraces(out)
}
