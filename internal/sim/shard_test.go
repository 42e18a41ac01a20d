package sim

import (
	"fmt"
	"testing"
)

// shardOracleTrace drives one engine through a deterministic pseudo-random
// mix of core-local timers (LocalSleepThen), global callback events at both
// priorities, tasks sleeping on the global queue and rng draws, and
// records the dispatch trace. The workload is rng-steered, so any ordering
// divergence between shard counts snowballs into a trace mismatch within a
// few events.
func shardOracleTrace(t *testing.T, shards, cores, steps int) ([]string, SchedStats) {
	t.Helper()
	eng := NewEngine(7)
	eng.ConfigureShards(shards)
	var trace []string
	emit := func(tag string, core, step int) {
		trace = append(trace, fmt.Sprintf("%s %d:%d @%d", tag, core, step, eng.Now()))
	}
	var chain func(core, step int) func()
	chain = func(core, step int) func() {
		return func() {
			emit("local", core, step)
			if step >= steps {
				return
			}
			d := Time(eng.Rand().Intn(60))
			if step%5 == 2 {
				// A same-cycle PrioLate arbiter and a far global event, so
				// the merge constantly interleaves local and global
				// populations at equal and differing times.
				eng.ScheduleAt(eng.Now(), PrioLate, func() { emit("late", core, step) })
				eng.Schedule(d+300, func() { emit("far", core, step) })
			}
			// Tail position: the chain continuation is the payload's last
			// simulation action, as the SleepThen contract requires.
			eng.LocalSleepThen(core, d+1, chain(core, step+1))
		}
	}
	for c := 0; c < cores; c++ {
		c := c
		eng.ScheduleAt(Time(c%13), PrioNormal, chain(c, 0))
	}
	// Tasks sleeping on the global queue exercise the SleepThen fast-path
	// guard and the interleaving of global continuations with shard
	// events.
	for i := 0; i < 8; i++ {
		eng.GoTask(fmt.Sprintf("proc%d", i), func(task *Task) {
			s := 0
			var step func()
			step = func() {
				if s == steps {
					task.Finish()
					return
				}
				task.Sleep(Time(eng.Rand().Intn(40)), func() {
					emit("proc", i, s)
					s++
					step()
				})
			}
			step()
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return trace, eng.SchedStats()
}

// TestShardOracle pins the sharded engine's dispatch order to the unsharded
// engine's: the trace (event identity and timestamp, in dispatch order)
// must be identical at every shard count, including a shard count that does
// not divide the core count. With enough cores in flight the drain rounds
// cross the parallel threshold, so running this under -race also exercises
// the concurrent drain path.
func TestShardOracle(t *testing.T) {
	const cores, steps = 192, 40
	want, _ := shardOracleTrace(t, 0, cores, steps)
	if len(want) == 0 {
		t.Fatal("empty oracle trace")
	}
	var statsAt4 *SchedStats
	for _, shards := range []int{1, 2, 4, 7} {
		got, st := shardOracleTrace(t, shards, cores, steps)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: %d events, want %d", shards, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: event %d = %q, want %q", shards, i, got[i], want[i])
			}
		}
		if st.CrossShardMsgs == 0 || st.HorizonAdvances == 0 {
			t.Fatalf("shards=%d: no shard traffic recorded: %+v", shards, st)
		}
		if shards == 4 {
			statsAt4 = &st
		}
	}
	// Shard diagnostics must be deterministic: a repeat run at the same
	// shard count reports identical counters regardless of whether drain
	// rounds ran serially or on goroutines.
	_, again := shardOracleTrace(t, 4, cores, steps)
	if again != *statsAt4 {
		t.Fatalf("shards=4 diagnostics not reproducible: %+v vs %+v", again, *statsAt4)
	}
}

// TestShardRunUntil pins the horizon semantics: local events past the
// RunUntil limit stay queued (reported by Pending) and dispatch on a later
// run, exactly like global events.
func TestShardRunUntil(t *testing.T) {
	eng := NewEngine(1)
	eng.ConfigureShards(2)
	var fired []Time
	for c := 0; c < 4; c++ {
		c := c
		eng.ScheduleAt(0, PrioNormal, func() {
			eng.LocalSleepThen(c, Time(50+10*c), func() { fired = append(fired, eng.Now()) })
		})
	}
	eng.RunUntil(55)
	if len(fired) != 1 || fired[0] != 50 {
		t.Fatalf("after RunUntil(55): fired=%v, want [50]", fired)
	}
	if p := eng.Pending(); p != 3 {
		t.Fatalf("Pending() = %d, want 3", p)
	}
	eng.RunUntil(200)
	if len(fired) != 4 {
		t.Fatalf("after RunUntil(200): fired=%v, want 4 events", fired)
	}
}

// TestShardUnshardedIdentity pins that ConfigureShards(0) leaves the engine
// on the legacy path (Shards reports 0, LocalSleepThen aliases SleepThen).
func TestShardUnshardedIdentity(t *testing.T) {
	eng := NewEngine(1)
	if eng.Shards() != 0 {
		t.Fatalf("fresh engine Shards() = %d", eng.Shards())
	}
	eng.ConfigureShards(3)
	if eng.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", eng.Shards())
	}
	eng.ConfigureShards(0)
	if eng.Shards() != 0 {
		t.Fatalf("Shards() = %d after reset, want 0", eng.Shards())
	}
}

// TestSetShardsPendingLocalEvents is the regression test for the
// mid-run-reconfiguration bugfix: with local events queued, SetShards must
// return an error (so a long-running service can reject the job), while
// ConfigureShards keeps its panic contract for harness programming errors.
// Once the events drain, reconfiguration works again.
func TestSetShardsPendingLocalEvents(t *testing.T) {
	eng := NewEngine(1)
	eng.ConfigureShards(2)
	ran := false
	eng.ScheduleAt(0, PrioNormal, func() {
		eng.LocalSleepThen(0, 100, func() { ran = true })
	})
	eng.RunUntil(10)
	if err := eng.SetShards(4); err == nil {
		t.Fatal("SetShards succeeded with local events pending")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ConfigureShards did not panic with local events pending")
			}
		}()
		eng.ConfigureShards(4)
	}()
	if eng.Shards() != 2 {
		t.Fatalf("failed reconfiguration changed the shard count to %d", eng.Shards())
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("pending local event never fired")
	}
	if err := eng.SetShards(4); err != nil {
		t.Fatalf("SetShards after drain: %v", err)
	}
	if eng.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", eng.Shards())
	}
}
