package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestAsyncResourceMirrorsBlockingResource drives a contention scenario
// through the continuation-form Resource and asserts the grant/release
// trace is the one recorded from the earlier blocking, process-based
// resource: same holders, in the same order, at the same cycles. This is
// the equivalence the continuation rewrite of the protocol models rests
// on.
func TestAsyncResourceMirrorsBlockingResource(t *testing.T) {
	// Each worker: arrive at its own offset, acquire, hold for a worker-
	// specific time, release, and repeat. Offsets force every flavor of
	// contention: free acquires, queued acquires, same-cycle handoffs.
	const workers = 5
	const rounds = 4
	arrival := func(w, r int) Time { return Time(w*3 + r*17) }
	holdFor := func(w, r int) Time { return Time(5 + (w+r)%7) }

	got := func() []string {
		var trace []string
		e := NewEngine(1)
		var res Resource
		for w := 0; w < workers; w++ {
			w := w
			r := 0
			var step func()
			step = func() {
				res.Acquire(e, func() {
					trace = append(trace, fmt.Sprintf("grant w%d@%d", w, e.Now()))
					e.Schedule(holdFor(w, r), func() {
						trace = append(trace, fmt.Sprintf("release w%d@%d", w, e.Now()))
						res.Release(e)
						if r++; r < rounds {
							d := Time(0)
							if at := arrival(w, r); at > e.Now() {
								d = at - e.Now()
							}
							e.Schedule(d, step)
						}
					})
				})
			}
			e.Schedule(arrival(w, 0), step)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return append(trace, fmt.Sprintf("busy=%d", res.BusyCycles))
	}()

	// The trace the blocking Resource produced, recorded as the reference.
	want := []string{
		"grant w0@0", "release w0@5", "grant w1@5", "release w1@11", "grant w2@11", "release w2@18",
		"grant w3@18", "release w3@26", "grant w4@26", "release w4@35", "grant w0@35", "release w0@41",
		"grant w1@41", "release w1@48", "grant w2@48", "release w2@56", "grant w3@56", "release w3@65",
		"grant w4@65", "release w4@75", "grant w0@75", "release w0@82", "grant w1@82", "release w1@90",
		"grant w2@90", "release w2@99", "grant w3@99", "release w3@109", "grant w4@109", "release w4@120",
		"grant w0@120", "release w0@128", "grant w1@128", "release w1@137", "grant w2@137", "release w2@147",
		"grant w3@147", "release w3@158", "grant w4@158", "release w4@163", "busy=163",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("grant trace diverged from the blocking reference:\n got: %v\nwant: %v", got, want)
	}
}

// TestAsyncWaitQueueFIFO checks wake order and delays of the wait queue's
// continuations against the documented FIFO contract.
func TestAsyncWaitQueueFIFO(t *testing.T) {
	e := NewEngine(1)
	var q WaitQueue
	var got []string
	note := func(tag string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%d", tag, e.Now())) }
	}
	q.Wait(e, note("a"))
	q.Wait(e, note("b"))
	q.Wait(e, note("c"))
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	e.Schedule(10, func() {
		if !q.WakeOne(2) {
			t.Error("WakeOne found no waiter")
		}
		q.WakeAll(5)
	})
	e.Schedule(30, func() {
		q.Wait(e, note("d")) // reuse after drain: backing array is recycled
		q.WakeAll(0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@12", "b@15", "c@15", "d@30"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wake trace = %v, want %v", got, want)
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d after drain, want 0", q.Len())
	}
	if q.WakeOne(0) {
		t.Error("WakeOne on empty queue reported a wake")
	}
}

// TestAsyncResourcePanicsOnFreeRelease pins the misuse check.
func TestAsyncResourcePanicsOnFreeRelease(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release of a free Resource did not panic")
		}
	}()
	var res Resource
	res.Release(NewEngine(1))
}
