package main

import (
	"fmt"
	"path/filepath"
	"strings"

	"wisync/internal/apps"
	"wisync/internal/channel"
	"wisync/internal/config"
	"wisync/internal/harness"
)

// point is one simulation the in-process workloads run.
type point struct {
	// key names the point in its expectation file.
	key string
	// spec is the point as the sweep vocabulary describes it; golden app
	// points carry the equivalent spec for the layer probes.
	spec harness.PointSpec
	// golden marks a golden app point, which runs through AppGoldenRun
	// and renders the shorter golden_apps.tsv row.
	golden *harness.AppGoldenPoint
}

// run executes the point through the repository's public entry point.
func (p point) run() (row string, err error) {
	if p.golden == nil {
		return p.spec.Run()
	}
	// AppGoldenRun panics on a failed simulation; the benchmark reports
	// that as an error row like PointSpec.Run does.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s panicked: %v", p.key, r)
		}
	}()
	return harness.AppGoldenRun(*p.golden), nil
}

// app returns the profile an app point runs, for the engine probe.
func (p point) app() (apps.Profile, bool) {
	name, ok := strings.CutPrefix(p.spec.Workload, "app:")
	if !ok {
		return apps.Profile{}, false
	}
	prof, ok := apps.ByName(name)
	if ok && p.spec.Iters > 0 {
		prof.Iterations = p.spec.Iters
	}
	return prof, ok
}

// lossyKey keys 256-core points by ID and channel, since the ID omits
// the channel.
func lossyKey(s harness.PointSpec) string { return s.ID() + "/" + s.Channel.String() }

// goldenPoints is every point of both committed matrices.
func goldenPoints() []point {
	var pts []point
	for _, g := range harness.GoldenPoints() {
		s := harness.PointSpec{Workload: g.Kernel, Kind: g.Kind, Cores: g.Cores, Seed: g.Seed}
		pts = append(pts, point{key: s.ID(), spec: s})
	}
	for _, g := range harness.AppGoldenPoints() {
		g := g
		s := harness.PointSpec{Workload: "app:" + g.App, Kind: g.Kind, Cores: 64, Seed: g.Seed, Iters: g.Iters}
		pts = append(pts, point{key: g.ID(), spec: s, golden: &g})
	}
	return pts
}

// wired256Points are the wired machines at 256 cores. The app iteration
// counts are trimmed as in the golden app matrix, and Livermore 6 runs
// n=20, so one run collects the 100 samples p90 needs within about ten
// seconds on a two-core host. A second tightloop seed, as in the golden
// matrix, makes 15 points: with an odd count whose nine tenths falls
// mid-point, p50 and p90 land inside one point's samples instead of on
// the boundary between two points, where they did not repeat.
func wired256Points() []point {
	s := harness.PointSpec{Workload: "tightloop", Kind: config.BaselinePlus, Cores: 256, Seed: 42}
	pts := []point{{key: lossyKey(s), spec: s}}
	for _, k := range []config.Kind{config.Baseline, config.BaselinePlus} {
		for _, s := range []harness.PointSpec{
			{Workload: "tightloop"},
			{Workload: "livermore2"},
			{Workload: "livermore6", N: 20},
			{Workload: "cas-fifo"},
			{Workload: "cas-add"},
			{Workload: "app:streamcluster", Iters: 3},
			{Workload: "app:dedup", Iters: 2},
		} {
			s.Kind, s.Cores, s.Seed = k, 256, 1
			pts = append(pts, point{key: lossyKey(s), spec: s})
		}
	}
	return pts
}

// wireless256Points are the wireless machines at 256 cores: the ideal
// channel with short CAS critical sections, and repeats on the uniform
// and burst lossy channels. app:streamcluster on WiSyncNoT ends in a
// "sim: deadlock" error row on uniform seeds 1-3 and burst seed 1; those
// points stay in the mix and count as failed. tightloop on WiSync over
// the uniform channel makes the count 25, for the reason given at
// wired256Points.
func wireless256Points() []point {
	s := harness.PointSpec{Workload: "tightloop", Kind: config.WiSync, Cores: 256, Seed: 1, Channel: channel.Uniform}
	pts := []point{{key: lossyKey(s), spec: s}}
	add := func(s harness.PointSpec) {
		s.Cores = 256
		if s.Seed == 0 {
			s.Seed = 1
		}
		pts = append(pts, point{key: lossyKey(s), spec: s})
	}
	for _, k := range []config.Kind{config.WiSyncNoT, config.WiSync} {
		for _, s := range []harness.PointSpec{
			{Workload: "tightloop"},
			{Workload: "cas-fifo", CS: 16},
			{Workload: "cas-lifo", CS: 16},
			{Workload: "cas-add", CS: 16},
			{Workload: "app:radiosity"},
			{Workload: "app:streamcluster"},
		} {
			s.Kind = k
			add(s)
		}
		for _, seed := range []uint64{1, 2, 3} {
			add(harness.PointSpec{Workload: "app:streamcluster", Kind: k, Seed: seed, Channel: channel.Uniform})
		}
		add(harness.PointSpec{Workload: "app:streamcluster", Kind: k, Channel: channel.Burst})
		add(harness.PointSpec{Workload: "cas-fifo", Kind: k, CS: 16, Channel: channel.Uniform})
		add(harness.PointSpec{Workload: "cas-fifo", Kind: k, CS: 16, Channel: channel.Burst})
	}
	return pts
}

// workloadPoints returns a workload's points and their expectations:
// the committed golden matrices for golden, the rows recorded under
// perfbench/expected for the 256-core workloads.
func workloadPoints(o options) ([]point, map[string]expectation, error) {
	if o.workload == "golden" {
		exp := make(map[string]expectation)
		for _, f := range []string{"golden.tsv", "golden_apps.tsv"} {
			m, err := readExpected(filepath.Join(o.root, "internal", "harness", "testdata", f), false)
			if err != nil {
				return nil, nil, err
			}
			for k, v := range m {
				exp[k] = v
			}
		}
		return goldenPoints(), exp, nil
	}
	pts := wired256Points()
	if o.workload == "wireless256" {
		pts = wireless256Points()
	}
	exp, err := readExpected(expectedPath(o, o.workload), true)
	return pts, exp, err
}

func expectedPath(o options, workload string) string {
	return filepath.Join(o.root, "perfbench", "expected", workload+".tsv")
}
