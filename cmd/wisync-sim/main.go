// Command wisync-sim runs one workload on one machine configuration per
// core count and prints each point's metrics row.
//
// Usage:
//
//	wisync-sim -config WiSync -cores 64 -workload tightloop -iters 20
//	wisync-sim -config Baseline -workload livermore6 -n 512
//	wisync-sim -config WiSync -workload cas-add -cs 256 -duration 100000
//	wisync-sim -config WiSyncNoT -workload app:streamcluster
//	wisync-sim -config WiSync -cores 16,64,256 -workers 0 -workload tightloop
//
// Workloads: tightloop, livermore2, livermore3, livermore6, cas-fifo,
// cas-lifo, cas-add (short names liv2, liv3, liv6, fifo, lifo, add), and
// app:<name>. Configs: Baseline, Baseline+, WiSyncNoT, WiSync. Variants:
// Default, SlowNet, SlowNet+L2, FastNet, SlowBMEM. MACs: backoff, token,
// adaptive (-mac swaps the wireless channel's arbitration protocol). -list
// enumerates everything runnable and exits.
//
// Each core count is one harness.PointSpec: the same vocabulary, defaults
// and row format as the sweep server and the golden matrices. -n, -iters,
// -cs and -duration default to 0, the workload's canonical parameter, so a
// default run prints exactly the golden-matrix row. The first output line
// is a "# wisync-sim ..." header echoing the effective configuration, so
// saved sweep outputs are self-describing; a point that fails prints
// "error: ..." in its place and the process exits 1.
//
// -cores accepts a comma-separated list; the points of such a sweep are
// independent seeded simulations, so they are dispatched across -workers
// concurrent workers (0 = GOMAXPROCS) and printed in list order — the
// output is identical at any worker count.
//
// -cpuprofile and -memprofile write standard pprof profiles of the
// simulation (see README "Profiling").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"wisync/internal/channel"
	"wisync/internal/config"
	"wisync/internal/fault"
	"wisync/internal/harness"
	"wisync/internal/profiling"
	"wisync/internal/wireless"
)

func macNames() string {
	var names []string
	for _, k := range wireless.MACKinds {
		names = append(names, k.String())
	}
	return strings.Join(names, "|")
}

func channelNames() string {
	var names []string
	for _, p := range channel.Profiles {
		names = append(names, p.String())
	}
	return strings.Join(names, "|")
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes rows to stdout and
// diagnostics to stderr, and returns the exit status (0 ok, 1 a point
// failed, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wisync-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgName := fs.String("config", "WiSync", "machine kind: Baseline, Baseline+, WiSyncNoT, WiSync")
	cores := fs.String("cores", "64", "core count 16-256, or a comma-separated sweep list")
	workload := fs.String("workload", "tightloop", "tightloop|livermore2|livermore3|livermore6|cas-fifo|cas-lifo|cas-add|app:<name> (short names liv2 liv3 liv6 fifo lifo add; see -list)")
	n := fs.Int("n", 0, "vector length for Livermore loops (0 = workload default)")
	iters := fs.Int("iters", 0, "iterations for tightloop; iteration override for apps (0 = workload default)")
	cs := fs.Int("cs", 0, "instructions between CASes for the CAS kernels (0 = workload default)")
	duration := fs.Uint64("duration", 0, "cycles to run the CAS kernels (0 = workload default)")
	variant := fs.String("variant", "Default", "Table 6 variant")
	seed := fs.Uint64("seed", 1, "simulation seed")
	workers := fs.Int("workers", 0, "concurrent sweep points for a -cores list (0 = GOMAXPROCS, 1 = sequential)")
	macName := fs.String("mac", "backoff", "wireless MAC protocol: "+macNames())
	chName := fs.String("channel", "ideal", "wireless channel-error profile: "+channelNames())
	ber := fs.Float64("ber", 0, "raw bit-error rate of the worst link for lossy -channel profiles (0 = profile default)")
	retries := fs.Int("retries", 0, "retransmission budget per message for lossy -channel profiles (0 = profile default)")
	faultsFlag := fs.String("faults", "", "deterministic fault-injection plan: inline JSON or @file (see internal/fault)")
	pointBudget := fs.Uint64("point-budget", 0, "cycle budget per point (0 = unlimited); a run still live at the budget fails with a structured error")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	list := fs.Bool("list", false, "list available workloads, configs, variants and MACs, then exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "wisync-sim: "+format+"\n", a...)
		return 2
	}

	if *list {
		printList(stdout)
		return 0
	}
	kind, ok := config.ParseKind(*cfgName)
	if !ok {
		return usage("unknown config %q", *cfgName)
	}
	v, ok := config.ParseVariant(*variant)
	if !ok {
		return usage("unknown variant %q", *variant)
	}
	mac, ok := wireless.ParseMACKind(*macName)
	if !ok {
		return usage("unknown MAC %q (one of: %s)", *macName, macNames())
	}
	chProfile, ok := channel.ParseProfile(*chName)
	if !ok {
		return usage("unknown channel profile %q (one of: %s)", *chName, channelNames())
	}
	plan, err := fault.ParseFlag(*faultsFlag)
	if err != nil {
		return usage("%v", err)
	}
	coreList, err := parseCores(*cores)
	if err != nil {
		return usage("%v", err)
	}
	// Every point is checked up front, so a bad workload, parameter or
	// core count is a usage error before any simulation starts.
	specs := make([]harness.PointSpec, len(coreList))
	for i, c := range coreList {
		specs[i] = harness.PointSpec{
			Workload: *workload, Kind: kind, Cores: c, Seed: *seed,
			Variant: v, MAC: mac,
			Channel: chProfile, BER: *ber, Retries: *retries,
			Faults: plan, Budget: *pointBudget,
			Iters: *iters, N: *n, CS: *cs, Duration: *duration,
		}
		if err := specs[i].Validate(); err != nil {
			return usage("%v", err)
		}
	}

	// Self-describing output: echo the effective configuration first.
	fmt.Fprintf(stdout, "# wisync-sim config=%v cores=%s variant=%v seed=%d workers=%d mac=%v channel=%v ber=%g retries=%d faults=%q point-budget=%d workload=%s\n",
		kind, *cores, v, *seed, *workers, mac, chProfile, *ber, *retries, *faultsFlag, *pointBudget, *workload)
	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		return usage("%v", err)
	}
	outcomes := harness.RunPoints(harness.Options{Workers: *workers}, specs)
	stopProfiles()
	status := 0
	for _, o := range outcomes {
		if o.Err != nil {
			fmt.Fprintf(stdout, "error: %v\n", o.Err)
			status = 1
			continue
		}
		fmt.Fprintln(stdout, o.Row)
	}
	return status
}

// printList enumerates everything the -config/-variant/-workload/-mac/
// -channel flags accept.
func printList(w io.Writer) {
	fmt.Fprintf(w, "workloads: %s\n", strings.Join(harness.Workloads, " "))
	var kinds []string
	for _, k := range config.Kinds {
		kinds = append(kinds, k.String())
	}
	fmt.Fprintf(w, "configs: %s\n", strings.Join(kinds, " "))
	var variants []string
	for _, v := range config.Variants {
		variants = append(variants, v.String())
	}
	fmt.Fprintf(w, "variants: %s\n", strings.Join(variants, " "))
	fmt.Fprintf(w, "macs: %s\n", strings.ReplaceAll(macNames(), "|", " "))
	fmt.Fprintf(w, "channels: %s\n", strings.ReplaceAll(channelNames(), "|", " "))
}

func parseCores(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad core count %q", part)
		}
		out = append(out, c)
	}
	return out, nil
}
