package apps

import (
	"flag"
	"fmt"
	"testing"

	"wisync/internal/config"
	"wisync/internal/recorded"
)

// The recorded-reference suite pins the profile interpreter at points
// outside the apps golden table in package harness: every reported metric
// and every mem/net/MAC protocol counter must match
// testdata/equivalence.tsv exactly, across seeds, architectures and
// profile shapes. The file was recorded from the blocking loop nest the
// continuation-form interpreter replaced, and the interpreter matched it
// before the loop nest was deleted. Regenerate it only after an intended
// behaviour change:
//
//	go test ./internal/apps -run Equivalence -update-golden

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/equivalence.tsv from the current interpreter")

const equivPath = "testdata/equivalence.tsv"

// equivProfiles picks profiles covering every interpreter path: barrier
// phases with reductions (streamcluster), a serialized hot lock
// (radiosity), a BM-overflowing lock array (dedup — the spill path), mixed
// barrier+locks (water-sp), and a compute-bound app with neither locks nor
// reductions (blackscholes). Iterations are trimmed so the matrix runs
// under -race in the short CI job.
func equivProfiles() []Profile {
	var ps []Profile
	for _, pick := range []struct {
		name  string
		iters int
	}{
		{"streamcluster", 3},
		{"radiosity", 3},
		{"dedup", 2},
		{"water-sp", 2},
		{"blackscholes", 2},
	} {
		p, ok := ByName(pick.name)
		if !ok {
			panic("unknown profile " + pick.name)
		}
		p.Iterations = pick.iters
		ps = append(ps, p)
	}
	return ps
}

// plain renders an application result field by field, without its input
// profile and configuration, and without Sched: SchedStats describe
// simulator mechanics (wheel routing, step reuse), not simulated behaviour.
func plain(r Result) string { return recorded.Fields(r, "Profile", "Cfg", "Sched") }

func TestRunExecEquivalence(t *testing.T) {
	var rows []recorded.Row
	for _, p := range equivProfiles() {
		for _, kind := range config.Kinds {
			for _, seed := range []uint64{1, 42} {
				cfg := config.New(kind, 16).WithSeed(seed)
				id := fmt.Sprintf("%s/%v/16c/s%d", p.Name, kind, seed)
				rows = append(rows, recorded.Row{ID: id, Value: plain(Run(cfg, p))})
			}
		}
	}
	recorded.Check(t, equivPath, "16c", rows, *updateGolden)
}

// TestRunExecEquivalenceFig10Point spot-checks the Figure 10 geometry (64
// cores), where barrier storms and MAC arbitration are qualitatively
// different from the 16-core matrix. Skipped in -short mode.
func TestRunExecEquivalenceFig10Point(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core equivalence points")
	}
	var rows []recorded.Row
	for _, name := range []string{"streamcluster", "radiosity"} {
		p, _ := ByName(name)
		p.Iterations = 3
		for _, kind := range []config.Kind{config.Baseline, config.WiSyncNoT, config.WiSync} {
			cfg := config.New(kind, 64)
			id := fmt.Sprintf("%s/%v/64c/s1", name, kind)
			rows = append(rows, recorded.Row{ID: id, Value: plain(Run(cfg, p))})
		}
	}
	recorded.Check(t, equivPath, "64c", rows, *updateGolden)
}

// TestTaskModeRecyclesSteps asserts the interpreter actually reuses its
// step structs: pool hits must dwarf misses on any non-trivial profile.
func TestTaskModeRecyclesSteps(t *testing.T) {
	p, _ := ByName("streamcluster")
	p.Iterations = 3
	r := Run(config.New(config.Baseline, 16), p)
	if r.Sched.StepPoolMisses == 0 {
		t.Fatal("no step allocations recorded — counters not wired?")
	}
	if r.Sched.StepPoolHits < 10*r.Sched.StepPoolMisses {
		t.Errorf("step pool hits (%d) not dominating misses (%d)",
			r.Sched.StepPoolHits, r.Sched.StepPoolMisses)
	}
}
