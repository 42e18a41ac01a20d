package kernels

import (
	"flag"
	"fmt"
	"testing"

	"wisync/internal/config"
	"wisync/internal/recorded"
)

// The recorded-reference suite pins the kernels at points outside the
// golden matrix in package harness: every reported metric and every
// mem/net/MAC protocol counter must match testdata/equivalence.tsv
// exactly, across seeds and all four architectures. The file was recorded
// from the blocking, goroutine-per-thread reference implementation the
// continuation-form kernels replaced, and the kernels matched it before
// that implementation was deleted. Regenerate it only after an intended
// behaviour change:
//
//	go test ./internal/kernels -run Equivalence -update-golden

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/equivalence.tsv from the current kernels")

const equivPath = "testdata/equivalence.tsv"

var equivSeeds = []uint64{1, 42}

// equivConfigs enumerates the (kind, seed) matrix at 16 cores — small
// enough to run under -race in the short CI job, while still exercising
// every synchronization substrate.
func equivConfigs() []config.Config {
	var cfgs []config.Config
	for _, k := range config.Kinds {
		for _, seed := range equivSeeds {
			cfgs = append(cfgs, config.New(k, 16).WithSeed(seed))
		}
	}
	return cfgs
}

// pointID names a configuration within a group.
func pointID(cfg config.Config) string {
	return fmt.Sprintf("%v/%dc/s%d", cfg.Kind, cfg.Cores, cfg.Seed)
}

// plain renders a kernel result field by field, without its input
// configuration.
func plain(r any) string { return recorded.Fields(r, "Cfg") }

func TestTightLoopExecEquivalence(t *testing.T) {
	var rows []recorded.Row
	for _, cfg := range equivConfigs() {
		rows = append(rows, recorded.Rowf(pointID(cfg), plain(TightLoop(cfg, 6))))
	}
	recorded.Check(t, equivPath, "tightloop", rows, *updateGolden)
}

func TestLivermore2ExecEquivalence(t *testing.T) {
	var rows []recorded.Row
	for _, cfg := range equivConfigs() {
		r, x := Livermore2(cfg, 48, 1)
		rows = append(rows, recorded.Rowf(pointID(cfg), plain(r)),
			recorded.Rowf(pointID(cfg)+"/x", x))
	}
	recorded.Check(t, equivPath, "livermore2", rows, *updateGolden)
}

func TestLivermore3ExecEquivalence(t *testing.T) {
	var rows []recorded.Row
	for _, cfg := range equivConfigs() {
		r, s := Livermore3(cfg, 96, 2)
		rows = append(rows, recorded.Rowf(pointID(cfg), plain(r)),
			recorded.Rowf(pointID(cfg)+"/sum", s))
	}
	recorded.Check(t, equivPath, "livermore3", rows, *updateGolden)
}

func TestLivermore6ExecEquivalence(t *testing.T) {
	var rows []recorded.Row
	for _, cfg := range equivConfigs() {
		r, w := Livermore6(cfg, 24)
		rows = append(rows, recorded.Rowf(pointID(cfg), plain(r)),
			recorded.Rowf(pointID(cfg)+"/w", w))
	}
	recorded.Check(t, equivPath, "livermore6", rows, *updateGolden)
}

func TestCASKernelExecEquivalence(t *testing.T) {
	// All three CAS kinds: the FIFO/LIFO/ADD kernels drive the CAS/backoff
	// retry loop — the contended-update path — under an open-ended
	// RunUntil horizon.
	var rows []recorded.Row
	for _, kind := range []CASKind{FIFO, LIFO, ADD} {
		for _, cfg := range equivConfigs() {
			id := fmt.Sprintf("%v/%s", kind, pointID(cfg))
			rows = append(rows, recorded.Rowf(id, plain(CASKernel(cfg, kind, 128, 8000))))
		}
	}
	recorded.Check(t, equivPath, "cas", rows, *updateGolden)
}

// TestExecEquivalenceLargerPoint spot-checks one bigger configuration per
// kernel family (64 cores), where contention storms and MAC arbitration
// are qualitatively different from the 16-core matrix. Skipped in -short
// mode; the 16-core matrix above still runs there (and under -race).
func TestExecEquivalenceLargerPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core equivalence points")
	}
	var rows []recorded.Row
	for _, k := range []config.Kind{config.Baseline, config.WiSync} {
		cfg := config.New(k, 64)
		rows = append(rows,
			recorded.Rowf("tightloop/"+pointID(cfg), plain(TightLoop(cfg, 8))),
			recorded.Rowf("cas-fifo/"+pointID(cfg), plain(CASKernel(cfg, FIFO, 128, 20000))))
	}
	recorded.Check(t, equivPath, "64c", rows, *updateGolden)
}
