package sim

import (
	"fmt"
	"strings"
	"testing"
)

// TestTaskMirrorsProcSleepChain pins the schedule contract: a task
// advancing through SleepThen continuations, interleaved with a second
// party, observes the exact (time, order) schedule recorded from a
// goroutine-backed process advancing through blocking Sleeps.
func TestTaskMirrorsProcSleepChain(t *testing.T) {
	e := NewEngine(1)
	var log []string
	note := func(who string) { log = append(log, fmt.Sprintf("%s@%d", who, e.Now())) }
	// A foreign ticker creates interleavings at odd times.
	for i := Time(1); i <= 9; i += 2 {
		e.ScheduleAt(i, PrioNormal, func() { note("tick") })
	}
	e.GoTask("w", func(task *Task) {
		n := 0
		var step func()
		step = func() {
			note("w")
			n++
			if n == 5 {
				task.Finish()
				return
			}
			task.Sleep(2, step)
		}
		task.Sleep(2, step)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "tick@1,w@2,tick@3,w@4,tick@5,w@6,tick@7,w@8,tick@9,w@10"
	if got := strings.Join(log, ","); got != want {
		t.Errorf("schedule diverged from the process reference:\n got: %s\nwant: %s", got, want)
	}
}

// TestSleepThenFastPathTrampoline checks that a long chain of uncontended
// continuations runs entirely through the trampoline slot: same results,
// no event-queue growth beyond the initial spawn, and constant stack depth
// (the chain would overflow the stack if each continuation nested).
func TestSleepThenFastPathTrampoline(t *testing.T) {
	e := NewEngine(1)
	const steps = 200000
	n := 0
	e.GoTask("chain", func(task *Task) {
		var step func()
		step = func() {
			n++
			if n == steps {
				task.Finish()
				return
			}
			if e.Pending() != 0 {
				t.Errorf("step %d: %d queued events on the uncontended fast path", n, e.Pending())
			}
			task.Sleep(1, step)
		}
		step()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != steps {
		t.Fatalf("ran %d steps, want %d", n, steps)
	}
	if e.Now() != Time(steps-1) {
		t.Errorf("clock at %d, want %d", e.Now(), steps-1)
	}
}

// TestSleepThenRespectsHorizon verifies that the fast path cannot advance
// the clock past a RunUntil limit.
func TestSleepThenRespectsHorizon(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.GoTask("w", func(task *Task) {
		var step func()
		step = func() {
			fired++
			task.Sleep(10, step)
		}
		step()
	})
	e.RunUntil(35)
	// Steps at 0, 10, 20, 30; the wake at 40 is past the horizon.
	if fired != 4 {
		t.Errorf("fired %d times by cycle 35, want 4", fired)
	}
	if e.Now() != 35 {
		t.Errorf("clock at %d, want 35", e.Now())
	}
	e.Shutdown()
}

// TestTaskDeadlockReported ensures an unfinished task surfaces in the
// deadlock diagnostics.
func TestTaskDeadlockReported(t *testing.T) {
	e := NewEngine(1)
	e.GoTask("stuck", func(*Task) {}) // never calls Finish
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	if len(de.Parked) != 1 || !strings.Contains(de.Parked[0], "stuck") {
		t.Errorf("diagnostics %v, want the stuck task", de.Parked)
	}
}

// TestGoTaskAfterShutdownPanics pins the spawn-after-Shutdown guard.
func TestGoTaskAfterShutdownPanics(t *testing.T) {
	e := NewEngine(1)
	e.Shutdown()
	defer func() {
		if recover() == nil {
			t.Error("GoTask after Shutdown did not panic")
		}
	}()
	e.GoTask("late", func(*Task) {})
}
