// Multiprogramming on one WiSync chip (paper Sections 3.2, 4.4, 5.1): two
// programs share the Broadcast Memory and the Tone channel. Each allocates
// its own tone barrier (the two barriers time-share the channel slots),
// PID tags isolate their BM entries, and a deliberate cross-program access
// demonstrates the protection fault.
package main

import (
	"fmt"

	"wisync/internal/config"
	"wisync/internal/core"
)

func main() {
	m := core.NewMachine(config.New(config.WiSync, 8))

	// Program A (PID 1) runs on cores 0-3, program B (PID 2) on 4-7.
	// Each gets a broadcast counter and a tone barrier of its own.
	ctrA, _ := m.BM.AllocBare(1, false)
	ctrB, _ := m.BM.AllocBare(2, false)
	barA, _ := m.Tone.AllocateBare(1, []int{0, 1, 2, 3})
	barB, _ := m.Tone.AllocateBare(2, []int{4, 5, 6, 7})

	// program adds delta to ctr, joins the barrier, and has its first
	// core report the counter once released.
	program := func(name string, ctr, bar uint32, delta uint64) func(*core.Task) {
		return func(t *core.Task) {
			t.BMFetchAdd(ctr, delta, func(uint64) {
				t.ToneStore(bar, func() {
					t.ToneWait(bar, 1, func() {
						if t.Core%4 != 0 {
							t.Finish()
							return
						}
						t.BMLoad(ctr, func(v uint64) {
							fmt.Printf("program %s: counter=%d, released at cycle %d\n", name, v, t.Now())
							t.Finish()
						})
					})
				})
			})
		}
	}
	runA, runB := program("A", ctrA, barA, 1), program("B", ctrB, barB, 2)
	for c := 0; c < 4; c++ {
		m.Spawn(fmt.Sprintf("A%d", c), c, 1, func(t *core.Task) {
			t.Compute(10 * (t.Core + 1))
			runA(t)
		})
	}
	for c := 4; c < 8; c++ {
		m.Spawn(fmt.Sprintf("B%d", c), c, 2, func(t *core.Task) {
			t.Compute(25 * (t.Core - 3))
			runB(t)
		})
	}
	if err := m.Run(); err != nil {
		panic(err)
	}
	fmt.Printf("tone barriers completed: %d (both programs, one shared Tone channel)\n",
		m.Tone.Stats.Completions)

	// Protection: program B touching program A's counter faults.
	m.Spawn("intruder", 4, 2, func(t *core.Task) {
		t.TryBMLoad(ctrA, func(_ uint64, err error) {
			if err != nil {
				fmt.Printf("protection works: %v\n", err)
			}
			t.Finish()
		})
	})
	if err := m.Run(); err != nil {
		panic(err)
	}
}
