package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(10, func() { got = append(got, 2) })
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(10, func() { got = append(got, 3) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
}

func TestSameCyclePriority(t *testing.T) {
	e := NewEngine(1)
	var got []string
	e.ScheduleAt(5, PrioLate, func() { got = append(got, "late") })
	e.ScheduleAt(5, PrioNormal, func() { got = append(got, "normal") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != "normal" || got[1] != "late" {
		t.Fatalf("priority order = %v", got)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleAt(3, PrioNormal, func() {})
	})
	_ = e.Run()
}

func TestProcSleep(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.GoTask("sleeper", func(task *Task) {
		times = append(times, task.Now())
		task.Sleep(7, func() {
			times = append(times, task.Now())
			task.Sleep(0, func() {
				times = append(times, task.Now())
				task.Finish()
			})
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if times[0] != 0 || times[1] != 7 || times[2] != 7 {
		t.Fatalf("times = %v", times)
	}
}

func TestProcInterleaving(t *testing.T) {
	e := NewEngine(1)
	var got []string
	for i := 0; i < 3; i++ {
		e.GoTask(fmt.Sprintf("p%d", i), func(task *Task) {
			task.Sleep(Time(i), func() {
				got = append(got, fmt.Sprintf("%s@%d", task.Name(), task.Now()))
				task.Finish()
			})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"p0@0", "p1@1", "p2@2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine(42)
		var log []string
		var res Resource
		for i := 0; i < 5; i++ {
			e.GoTask(fmt.Sprintf("p%d", i), func(task *Task) {
				task.Sleep(Time(e.Rand().Intn(4)), func() {
					res.Acquire(e, func() {
						log = append(log, fmt.Sprintf("%d@%d", i, task.Now()))
						task.Sleep(3, func() {
							res.Release(e)
							task.Finish()
						})
					})
				})
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

// TestParkWake parks a task on a wait queue and wakes it from another
// task with a delay.
func TestParkWake(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	var woke Time
	e.GoTask("waiter", func(task *Task) {
		task.SetReason("waiting for signal")
		q.Wait(e, func() {
			woke = task.Now()
			task.Finish()
		})
	})
	e.GoTask("waker", func(task *Task) {
		task.Sleep(20, func() {
			q.WakeOne(5)
			task.Finish()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 25 {
		t.Fatalf("woke at %d, want 25", woke)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	e.GoTask("stuck", func(task *Task) {
		task.SetReason("never woken")
		q.Wait(e, task.Finish)
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Parked) != 1 || de.Parked[0] != "stuck: never woken" {
		t.Fatalf("Parked = %v", de.Parked)
	}
	e.Shutdown()
}

// TestDoubleFinishPanics pins the task bookkeeping check: finishing a task
// twice is a bug in the caller.
func TestDoubleFinishPanics(t *testing.T) {
	e := NewEngine(1)
	e.GoTask("twice", func(task *Task) {
		task.Finish()
		defer func() {
			if recover() == nil {
				t.Error("double Finish did not panic")
			}
		}()
		task.Finish()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRunUntilAndShutdown(t *testing.T) {
	e := NewEngine(1)
	var steps int
	e.GoTask("worker", func(task *Task) {
		var step func()
		step = func() {
			steps++
			task.Sleep(10, step)
		}
		task.Sleep(10, step)
	})
	e.RunUntil(55)
	if steps != 5 {
		t.Fatalf("steps = %d, want 5", steps)
	}
	if e.Now() != 55 {
		t.Fatalf("Now = %d, want 55", e.Now())
	}
	if e.Live() != 1 {
		t.Fatalf("Live = %d before Shutdown, want 1", e.Live())
	}
	e.Shutdown()
	if e.Live() != 0 {
		t.Fatalf("Live = %d after Shutdown", e.Live())
	}
	if !e.Stopped() {
		t.Fatal("Stopped = false after Shutdown")
	}
}

// TestProcPanicPropagates checks that a panic raised inside a task's
// continuation reaches Run's caller unchanged.
func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.GoTask("bomb", func(task *Task) {
		task.Sleep(1, func() { panic("boom") })
	})
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want the task's panic value", r)
		}
	}()
	_ = e.Run()
}

func TestWaitQueue(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	var order []string
	for i := 0; i < 3; i++ {
		e.GoTask(fmt.Sprintf("w%d", i), func(task *Task) {
			task.Sleep(Time(i), func() { // deterministic enqueue order
				q.Wait(e, func() {
					order = append(order, task.Name())
					task.Finish()
				})
			})
		})
	}
	e.Schedule(10, func() {
		if q.Len() != 3 {
			t.Errorf("Len = %d, want 3", q.Len())
		}
		q.WakeAll(0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w0", "w1", "w2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order %v, want %v", order, want)
		}
	}
}

func TestWaitQueueWakeOne(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	var woken []string
	for i := 0; i < 3; i++ {
		e.GoTask(fmt.Sprintf("w%d", i), func(task *Task) {
			task.Sleep(Time(i), func() {
				q.Wait(e, func() {
					woken = append(woken, fmt.Sprintf("%s@%d", task.Name(), task.Now()))
					task.Finish()
				})
			})
		})
	}
	e.Schedule(10, func() {
		q.WakeOne(0) // wakes w0
		q.WakeOne(2) // wakes w1
	})
	e.Schedule(20, func() {
		q.WakeOne(0) // wakes w2
		if q.WakeOne(0) {
			t.Error("WakeOne on empty queue = true")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w0@10", "w1@12", "w2@20"}
	for i := range want {
		if woken[i] != want[i] {
			t.Fatalf("woken = %v, want %v", woken, want)
		}
	}
}

func TestResourceFIFO(t *testing.T) {
	e := NewEngine(1)
	var r Resource
	var order []string
	for i := 0; i < 4; i++ {
		e.GoTask(fmt.Sprintf("p%d", i), func(task *Task) {
			task.Sleep(Time(i), func() { // request order p0..p3
				r.Acquire(e, func() {
					order = append(order, fmt.Sprintf("%s@%d", task.Name(), task.Now()))
					task.Sleep(10, func() {
						r.Release(e)
						task.Finish()
					})
				})
			})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"p0@0", "p1@10", "p2@20", "p3@30"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if r.BusyCycles != 40 {
		t.Fatalf("BusyCycles = %d, want 40", r.BusyCycles)
	}
}

// TestResourceReleaseByNonOwnerPanics checks that releasing a resource
// nobody holds — what a non-owner's Release amounts to once the holder has
// released — panics.
func TestResourceReleaseByNonOwnerPanics(t *testing.T) {
	e := NewEngine(1)
	var r Resource
	e.GoTask("owner", func(task *Task) {
		r.Acquire(e, func() {
			task.Sleep(5, func() {
				r.Release(e)
				task.Finish()
			})
		})
	})
	e.GoTask("thief", func(task *Task) {
		task.Sleep(6, func() {
			defer func() {
				if recover() == nil {
					t.Error("Release of a free resource did not panic")
				}
			}()
			task.Finish()
			r.Release(e)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(7).Uint64() == NewRand(8).Uint64() {
		t.Fatal("different seeds produced identical first value")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(3)
	err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 10000; i++ {
		v := r.Jitter(100, 0.25, 1)
		if v < 75 || v > 125 {
			t.Fatalf("Jitter = %v outside [75,125]", v)
		}
	}
	if v := r.Jitter(0.5, 0.9, 1); v != 1 {
		t.Fatalf("Jitter floor = %v, want 1", v)
	}
}

func TestForkIndependentStreams(t *testing.T) {
	r := NewRand(5)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked streams start identically")
	}
}

// TestManyProcsStress runs a few hundred tasks through a contended
// resource to shake out handoff bugs.
func TestManyProcsStress(t *testing.T) {
	e := NewEngine(99)
	var r Resource
	var count int
	const n = 300
	for i := 0; i < n; i++ {
		e.GoTask(fmt.Sprintf("p%d", i), func(task *Task) {
			task.Sleep(Time(e.Rand().Intn(50)), func() {
				r.Acquire(e, func() {
					task.Sleep(1, func() {
						count++
						r.Release(e)
						task.Finish()
					})
				})
			})
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
}
