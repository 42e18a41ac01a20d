// Package sim implements a deterministic, single-threaded discrete-event
// simulation engine.
//
// # Execution model
//
// The engine advances a cycle-resolution clock and executes events in
// (time, priority, sequence) order, so identical inputs always produce
// identical simulations. Events live in a two-level queue (see "Timing
// wheel" below); scheduling one is an append into a reused slice, never a
// per-event heap allocation. Every event is a plain callback
// (Schedule/ScheduleAt) that the engine invokes inline from its run loop:
// one event costs a queue push, a pop, and a function call, and a whole
// simulation runs on the goroutine that called Run.
//
// Hardware models and workload threads are written as continuation
// chains. A multi-step protocol transaction (request flight, queueing,
// hold, reply) schedules each next step as a callback event; a model that
// must wait on a condition parks a completion callback on a WaitQueue, or
// on a Resource for FIFO mutual exclusion (syncutil.go). A workload
// thread is a Task (task.go): it is spawned with GoTask, advances
// exclusively through completion callbacks (SleepThen, the hardware
// models' operations, WaitQueue.Wait), and retires with Finish. Every
// suspension consumes exactly one event sequence number, at the point
// the model suspends, so the step after it runs at a fixed
// (time, priority, sequence) position. The golden-conformance suites in
// package harness pin the resulting schedule end to end.
//
// SleepThen has a zero-handoff fast path: when the continuation would be
// the very next event popped, no event is pushed at all — the clock
// advances inline and the continuation lands in the engine's trampoline
// slot (cont), which the scheduler loop drains after each callback event.
// The trampoline keeps arbitrarily long uncontended chains at constant
// stack depth: each continuation returns to the scheduler before the next
// one runs, so continuation-form loops never recurse. The fast path only
// short-circuits the exact dispatch the event queue would have performed
// next, so results are bit-identical to always pushing the event.
//
// # Timing wheel
//
// Event storage is hierarchical: a small timing wheel of one-cycle buckets
// in front of a typed 4-ary min-heap (queue.go). The simulator's sleeps
// are overwhelmingly short — cache round trips, channel slots, backoff
// windows and barrier episodes land 2–110 cycles ahead — so almost every
// event is scheduled within the wheel horizon (256 cycles) and costs an
// O(1) bucket append and a bitmap-scan pop, no comparisons. The rare
// far-future event (an application's long compute phase, an open-ended run
// horizon) falls back to the heap, and first/pop merge the two levels by
// comparing their minima, so the composite dispatches in exactly the
// (time, priority, sequence) order a single heap would — the fuzz/oracle
// suite in queue_fuzz_test.go drives both against container/heap,
// including events that cross the horizon between push and pop and
// same-tick priority ties. Within a bucket, PrioNormal and PrioLate events
// live in separate FIFOs (sequence numbers are monotone, so FIFO order is
// dispatch order). SchedStats reports the wheel-hit / heap-fallback split,
// surfaced by wisync-bench -v.
//
// # Determinism
//
// The engine owns all randomness through a seeded splitmix64 generator,
// keeping collision backoff and workload jitter reproducible. Every event
// gets a unique, monotonically increasing sequence number, so the event
// order is a strict total order: same seed, same schedule, same results —
// regardless of whether sleeps take the fast or slow path, and regardless
// of how many engines run concurrently (engines share no state; see
// package harness for the sweep-level worker pool built on that).
package sim

import (
	"fmt"
	"sort"
)

// Time is a simulation timestamp in processor cycles (1 ns at 1 GHz).
type Time uint64

// maxTime is the largest representable timestamp, used as the run limit
// when no horizon applies.
const maxTime = ^Time(0)

// Priority orders events that fire on the same cycle. Lower runs first.
// Most events use PrioNormal; arbiters that must observe every request
// registered during a cycle run at PrioLate.
type Priority int8

const (
	// PrioNormal is the default event priority.
	PrioNormal Priority = 0
	// PrioLate runs after all same-cycle PrioNormal events. Channel
	// arbiters use it so that every transmit request registered during a
	// cycle participates in that cycle's contention slot.
	PrioLate Priority = 1
)

// Engine is a discrete-event simulator. The zero value is not usable; use
// NewEngine.
type Engine struct {
	now Time
	q   eventQueue
	seq uint64
	// limit is the inclusive ceiling for the SleepThen fast path: a
	// continuation may only self-advance the clock to times t <= limit,
	// the horizon of the innermost Run/RunUntil (matching runEvents' pop
	// condition).
	limit Time
	rng   *Rand
	tasks map[*Task]struct{}
	// cont is the trampoline slot for the SleepThen fast path: a
	// continuation that must run immediately after the current event, at
	// constant stack depth. runEvents drains it after every callback event.
	cont    func()
	stopped bool
	// sh is the sharded local-event store (shard.go), nil in the default
	// unsharded engine. Core-local timers routed through LocalSleepThen
	// live there instead of q; runEvents merges the two populations in
	// exact (time, priority, sequence) order.
	sh *shardSet
	// Recycled-step pool counters, reported by workload layers through
	// StepPoolHit/StepPoolMiss.
	stepPoolHits   uint64
	stepPoolMisses uint64
}

// NewEngine returns an engine whose random stream is derived from seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{
		rng:   NewRand(seed),
		limit: maxTime,
		tasks: make(map[*Task]struct{}),
	}
}

// SchedStats are the engine's scheduling-internals counters: how events were
// stored (timing wheel vs heap fallback) and how the workload layers'
// recycled continuation steps were obtained (pool reuse vs fresh
// allocation). They describe simulator mechanics, not simulated behavior,
// and exist so sweeps are diagnosable without a profiler (wisync-bench -v).
type SchedStats struct {
	// WheelEvents counts events stored in the timing wheel (scheduled
	// within wheelSpan cycles of the clock).
	WheelEvents uint64
	// HeapEvents counts far-future events that fell back to the 4-ary heap.
	HeapEvents uint64
	// StepPoolHits counts recycled-step reuses reported by workload layers
	// via StepPoolHit; StepPoolMisses counts the fresh allocations.
	StepPoolHits   uint64
	StepPoolMisses uint64
	// Sharded-mode counters, zero in the unsharded engine. HorizonAdvances
	// counts drain rounds (conservative horizon computations that moved
	// shard heaps into sorted outboxes); CrossShardMsgs counts local events
	// handed across the shard boundary into the globally ordered dispatch;
	// BarrierStalls counts shard-rounds where a shard had nothing to
	// contribute inside the horizon while a sibling did.
	HorizonAdvances uint64
	CrossShardMsgs  uint64
	BarrierStalls   uint64
}

// Add accumulates other into s, for aggregating counters across sweep
// points.
func (s *SchedStats) Add(other SchedStats) {
	s.WheelEvents += other.WheelEvents
	s.HeapEvents += other.HeapEvents
	s.StepPoolHits += other.StepPoolHits
	s.StepPoolMisses += other.StepPoolMisses
	s.HorizonAdvances += other.HorizonAdvances
	s.CrossShardMsgs += other.CrossShardMsgs
	s.BarrierStalls += other.BarrierStalls
}

// SchedStats returns the engine's scheduling counters.
func (e *Engine) SchedStats() SchedStats {
	s := SchedStats{
		WheelEvents:    e.q.wheelHits,
		HeapEvents:     e.q.heapFallbacks,
		StepPoolHits:   e.stepPoolHits,
		StepPoolMisses: e.stepPoolMisses,
	}
	if e.sh != nil {
		s.HorizonAdvances = e.sh.drains
		s.CrossShardMsgs = e.sh.dispatched
		s.BarrierStalls = e.sh.stalls
	}
	return s
}

// StepPoolHit records one recycled-step reuse. Workload layers that keep
// per-task step structs (kernels, apps, core's recycled operations) report
// through these so -v sweeps can confirm the steady state allocates
// nothing.
func (e *Engine) StepPoolHit() { e.stepPoolHits++ }

// StepPoolMiss records one fresh step allocation.
func (e *Engine) StepPoolMiss() { e.stepPoolMisses++ }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *Rand { return e.rng }

// Pending returns the number of scheduled events, for instrumentation.
func (e *Engine) Pending() int {
	n := e.q.len()
	if e.sh != nil {
		n += e.sh.pending()
	}
	return n
}

// Schedule runs fn after d cycles at normal priority.
func (e *Engine) Schedule(d Time, fn func()) { e.ScheduleAt(e.now+d, PrioNormal, fn) }

// ScheduleAt runs fn at absolute time t with the given priority. Scheduling
// in the past is an error and panics: it would silently reorder causality.
func (e *Engine) ScheduleAt(t Time, prio Priority, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	e.seq++
	key := e.seq
	if prio == PrioLate {
		key |= prioBit
	}
	e.q.push(event{t: t, key: key, fn: fn}, e.now)
}

// DeadlockError reports that the event queue drained while tasks were still
// unfinished, i.e. the simulated system deadlocked.
type DeadlockError struct {
	// Parked lists "name: reason" for every stuck task.
	Parked []string
	// Now is the simulated time at which the queue drained.
	Now Time
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at cycle %d, %d process(es) parked: %v", d.Now, len(d.Parked), d.Parked)
}

// Run executes events until none remain. It returns a *DeadlockError if
// tasks are still unfinished afterwards. A panic raised by an event
// propagates to the caller.
func (e *Engine) Run() error {
	e.limit = maxTime
	e.runEvents()
	return e.CheckDeadlock()
}

// RunBounded executes all events with timestamp <= t but, unlike RunUntil,
// leaves the clock at the last executed event. Guarded runs (core's
// budget/watchdog loop) chunk the simulation with it so that a run which
// completes mid-chunk finishes at exactly the same cycle an unchunked Run
// would have — event order and final time are bit-identical by
// construction.
func (e *Engine) RunBounded(t Time) {
	e.limit = t
	e.runEvents()
	e.limit = maxTime
}

// RunUntil executes all events with timestamp <= t, then advances the clock
// to t. Tasks still running are left unfinished; call Shutdown to retire
// them.
func (e *Engine) RunUntil(t Time) {
	e.RunBounded(t)
	if e.now < t {
		e.now = t
	}
}

// runEvents is the scheduler loop: it pops and runs events up to the run
// horizon, draining the SleepThen trampoline after each one. Exactly one
// goroutine — the one driving the engine — executes engine code, so no
// locking is needed anywhere in the simulator.
func (e *Engine) runEvents() {
	for {
		// Sharded mode: dispatch the earliest local event whenever it
		// precedes the global queue head.
		if e.sh != nil && e.sh.qCount+e.sh.outCount != 0 && e.dispatchLocal() {
			continue
		}
		head := e.q.first()
		if head == nil || head.t > e.limit {
			return
		}
		ev := e.q.pop()
		e.now = ev.t
		ev.fn()
		// Trampoline: drain continuations parked by the SleepThen fast
		// path. Each runs with the stack already unwound to here, so
		// continuation-form loops never recurse.
		for e.cont != nil {
			fn := e.cont
			e.cont = nil
			fn()
		}
	}
}

// CheckDeadlock reports a *DeadlockError if any task is still unfinished,
// and nil otherwise. Run calls it automatically when the queue drains;
// watchdog/budget guards call it explicitly after RunUntil to tell a
// genuine deadlock (queue empty, tasks parked) from a livelock or budget
// overrun (events still flowing).
func (e *Engine) CheckDeadlock() error {
	if len(e.tasks) == 0 {
		return nil
	}
	return &DeadlockError{Parked: e.Breadcrumbs(), Now: e.now}
}

// Breadcrumbs returns one "name: reason" line per unfinished task, in
// sorted order — the last-operation trail used in deadlock, livelock, and
// budget diagnostics. It must be called before Shutdown, which clears the
// live set.
func (e *Engine) Breadcrumbs() []string {
	var parked []string
	for t := range e.tasks {
		parked = append(parked, t.name+": "+t.reasonLine())
	}
	sort.Strings(parked)
	return parked
}

// Shutdown retires every unfinished task and marks the engine stopped. It
// is called after RunUntil, when open-ended workloads are still live.
func (e *Engine) Shutdown() {
	e.tasks = make(map[*Task]struct{})
	if e.sh != nil {
		e.sh.clearAll()
	}
	e.stopped = true
}

// Stopped reports whether Shutdown has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// Live returns the number of tasks that have been started and have not yet
// finished.
func (e *Engine) Live() int { return len(e.tasks) }
