package harness

import (
	"fmt"
	"testing"

	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/sim"
	"wisync/internal/simtest"
	"wisync/internal/syncprims"
)

// TestKitchenSink runs every synchronization primitive concurrently on
// every machine configuration — locks and barriers interleaved with
// reductions, eurekas, producer-consumer traffic and shared-memory reads —
// and checks functional outcomes plus the coherence invariants afterwards.
// This is the system's widest single integration point.
func TestKitchenSink(t *testing.T) {
	const cores, rounds = 32, 4
	for _, kind := range config.Kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			m := core.NewMachine(config.New(kind, cores))
			f := syncprims.NewFactory(m)
			barrier := f.NewBarrier(nil)
			lock := f.NewLock()
			red := f.NewReducer(0)
			eur := f.NewEureka()
			pc := f.NewPC(1)
			counter := f.NewVar(0)
			sharedBase := m.AllocArray(256)

			var inCS, maxCS int
			var consumed []uint64
			m.SpawnAll(func(th *core.Task) {
				rng := sim.NewRand(uint64(th.Core) + 1234)
				var casDone bool
				simtest.Repeat(rounds, func(r int) simtest.Op {
					ops := []simtest.Op{
						simtest.Do(func() { th.Compute(rng.Intn(300)) }),
						// Background coherence traffic.
						simtest.Repeat(4, func(int) simtest.Op {
							return func(next func()) {
								th.Read(sharedBase+uint64(rng.Intn(256)*8), func(uint64) { next() })
							}
						}),
						// Mutual exclusion.
						func(next func()) {
							lock.Acquire(th, func() {
								inCS++
								if inCS > maxCS {
									maxCS = inCS
								}
								th.Compute(15)
								th.Sync(func() {
									inCS--
									lock.Release(th, next)
								})
							})
						},
						// Reduction and lock-free updates.
						func(next func()) { red.Add(th, 1, func(uint64) { next() }) },
						simtest.Do(func() { casDone = false }),
						simtest.While(func() bool { return !casDone }, func(next func()) {
							counter.Load(th, func(old uint64) {
								counter.Load(th, func(cur uint64) {
									counter.CAS(th, old, cur+1, func(ok bool) {
										if casDone = ok; !ok {
											th.Instr(8)
										}
										next()
									})
								})
							})
						}),
					}
					// Producer-consumer across two fixed cores.
					if th.Core == 0 {
						ops = append(ops, func(next func()) { pc.Produce(th, []uint64{uint64(r + 1)}, next) })
					}
					if th.Core == cores-1 {
						buf := make([]uint64, 1)
						ops = append(ops, func(next func()) {
							pc.Consume(th, buf, func() {
								consumed = append(consumed, buf[0])
								next()
							})
						})
					}
					// One thread triggers the eureka each round; all ack.
					if th.Core == r%cores {
						ops = append(ops, func(next func()) { eur.Trigger(th, next) })
					} else {
						ops = append(ops, func(next func()) { eur.WaitTriggered(th, next) })
					}
					ops = append(ops, simtest.Do(func() { eur.Ack(th) }),
						func(next func()) { barrier.Wait(th, next) })
					return simtest.Chain(ops...)
				})(th.Finish)
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if maxCS != 1 {
				t.Errorf("mutual exclusion violated: %d threads in CS", maxCS)
			}
			var redVal uint64
			m.Spawn("check", 0, 1, func(th *core.Task) {
				red.Value(th, func(v uint64) { redVal = v; th.Finish() })
			})
			if err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if want := uint64(cores * rounds); redVal != want {
				t.Errorf("reduction = %d, want %d", redVal, want)
			}
			if len(consumed) != rounds {
				t.Fatalf("consumed %d items, want %d", len(consumed), rounds)
			}
			for i, v := range consumed {
				if v != uint64(i+1) {
					t.Errorf("consumed[%d] = %d, want %d", i, v, i+1)
				}
			}
			if err := m.Mem.CheckInvariants(); err != nil {
				t.Errorf("coherence invariants after kitchen sink: %v", err)
			}
		})
	}
}

// TestKitchenSinkDeterministic re-runs one configuration and requires
// bit-identical end times: the whole stack, including backoff randomness
// and workload jitter, must be reproducible.
func TestKitchenSinkDeterministic(t *testing.T) {
	run := func() sim.Time {
		m := core.NewMachine(config.New(config.WiSync, 16))
		f := syncprims.NewFactory(m)
		b := f.NewBarrier(nil)
		l := f.NewLock()
		red := f.NewReducer(0)
		m.SpawnAll(func(th *core.Task) {
			rng := sim.NewRand(uint64(th.Core) * 7)
			simtest.Repeat(5, func(int) simtest.Op {
				return func(next func()) {
					th.Compute(rng.Intn(200))
					l.Acquire(th, func() {
						th.Compute(10)
						l.Release(th, func() {
							red.Add(th, 1, func(uint64) { b.Wait(th, next) })
						})
					})
				}
			})(th.Finish)
		})
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Now()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}

// TestAllCoreCountsAllKinds smoke-tests every paper core count on every
// configuration with a small barrier loop — the full cross product the
// evaluation sweeps.
func TestAllCoreCountsAllKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-product sweep")
	}
	for _, cores := range []int{16, 32, 64, 128, 256} {
		for _, kind := range config.Kinds {
			cores, kind := cores, kind
			t.Run(fmt.Sprintf("%s-%d", kind, cores), func(t *testing.T) {
				m := core.NewMachine(config.New(kind, cores))
				b := syncprims.NewFactory(m).NewBarrier(nil)
				done := 0
				m.SpawnAll(func(th *core.Task) {
					simtest.Repeat(2, func(int) simtest.Op {
						return func(next func()) {
							th.Compute(th.Core % 17)
							b.Wait(th, next)
						}
					})(func() {
						done++
						th.Finish()
					})
				})
				if err := m.Run(); err != nil {
					t.Fatal(err)
				}
				if done != cores {
					t.Errorf("done = %d, want %d", done, cores)
				}
			})
		}
	}
}
