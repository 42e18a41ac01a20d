package syncprims

import (
	"flag"
	"fmt"
	"testing"

	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/recorded"
)

// The syncprim recorded-reference tests drive each primitive through a
// fixed workload and assert its simulated outcome — final cycle count,
// protocol counters, and the functional state the primitive protects —
// matches testdata/equivalence.tsv exactly. The file was recorded from
// the blocking reference implementation the continuation-form primitives
// replaced, and the primitives matched it before that implementation was
// deleted. Regenerate it only after an intended behaviour change:
//
//	go test ./internal/syncprims -run Equivalence -update-golden

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/equivalence.tsv from the current primitives")

const equivPath = "testdata/equivalence.tsv"

// lockResult captures everything a lock workload can observe.
type lockResult struct {
	Cycles  uint64
	Counter uint64
	MemHits uint64
	MemMiss uint64
	Txns    uint64
	NetMsgs uint64
}

// runLocks hammers a critical section: each task increments an
// unprotected Go counter under the lock; any mutual-exclusion failure shows
// up as a lost update in the simulated interleave.
func runLocks(cfg config.Config, rounds int) lockResult {
	m := core.NewMachine(cfg)
	l := NewFactory(m).NewLock()
	var counter uint64
	m.SpawnAll(func(t *core.Task) {
		loop(t, rounds, func(_ int, next func()) {
			l.Acquire(t, func() {
				counter++
				t.Instr(20)
				l.Release(t, next)
			})
		})
	})
	if err := m.Run(); err != nil {
		panic(err)
	}
	return lockResultOf(m, counter)
}

func lockResultOf(m *core.Machine, counter uint64) lockResult {
	r := lockResult{
		Cycles:  uint64(m.Now()),
		Counter: counter,
		MemHits: m.Mem.Stats.L1Hits,
		MemMiss: m.Mem.Stats.L1Misses,
		Txns:    m.Mem.Stats.Transactions,
	}
	if m.Net != nil {
		r.NetMsgs = m.Net.Stats.Messages
	}
	return r
}

// TestLockTaskEquivalence covers the spinLock (Baseline: CAS/backoff over
// cached memory; WiSync: wireless test&set) and the Baseline+ MCS queue
// lock.
func TestLockTaskEquivalence(t *testing.T) {
	const rounds = 4
	var rows []recorded.Row
	for _, k := range config.Kinds {
		for _, seed := range []uint64{1, 42} {
			cfg := config.New(k, 8).WithSeed(seed)
			r := runLocks(cfg, rounds)
			if want := uint64(8 * rounds); r.Counter != want {
				t.Errorf("%v seed %d: counter = %d, want %d (mutual exclusion broken?)",
					k, seed, r.Counter, want)
			}
			rows = append(rows, recorded.Rowf(fmt.Sprintf("%v/8c/s%d", k, seed), r))
		}
	}
	recorded.Check(t, equivPath, "lock", rows, *updateGolden)
}

// TestBarrierTaskEquivalence drives each barrier implementation directly
// (not through a kernel): per-episode phase counters must observe full
// synchronization, and the run must finish at the recorded cycle with the
// recorded protocol counters.
func TestBarrierTaskEquivalence(t *testing.T) {
	const episodes = 5
	run := func(cfg config.Config) (uint64, string) {
		m := core.NewMachine(cfg)
		b := NewFactory(m).NewBarrier(nil)
		phase := make([]int, m.Cfg.Cores)
		check := func(core int) {
			phase[core]++
			for c, p := range phase {
				if p < phase[core]-1 || p > phase[core]+1 {
					panic(fmt.Sprintf("core %d at phase %d while core %d at %d", core, phase[core], c, p))
				}
			}
		}
		m.SpawnAll(func(t *core.Task) {
			loop(t, episodes, func(_ int, next func()) {
				t.Instr(10 * (1 + t.Core%3))
				b.Wait(t, func() { check(t.Core); next() })
			})
		})
		if err := m.Run(); err != nil {
			panic(err)
		}
		net := ""
		if m.Net != nil {
			net = fmt.Sprintf("%+v/%+v", m.Net.Stats, m.Net.MACCounters())
		}
		return uint64(m.Now()), fmt.Sprintf("mem=%+v net=%s", m.Mem.Stats, net)
	}
	var rows []recorded.Row
	for _, k := range config.Kinds {
		for _, seed := range []uint64{1, 42} {
			cfg := config.New(k, 16).WithSeed(seed)
			cyc, ctr := run(cfg)
			rows = append(rows, recorded.Row{ID: fmt.Sprintf("%v/16c/s%d", k, seed), Value: fmt.Sprintf("cyc=%d %s", cyc, ctr)})
		}
	}
	recorded.Check(t, equivPath, "barrier", rows, *updateGolden)
}
