package sim

// WaitQueue is a FIFO list of continuations blocked on a condition.
// Hardware models use it to suspend workload tasks until the condition
// changes: Wait enqueues a completion callback, and waking schedules each
// callback as an ordinary engine event after the given delay, consuming
// one event sequence number per waiter. The zero value is an empty queue
// ready to use.
//
// The queue is a head-indexed deque over a reused backing array: spin loops
// park and wake the same tasks over and over, and re-growing the queue
// each round is measurable garbage on hot coherence lines.
type WaitQueue struct {
	fns  []func()
	head int
	eng  *Engine
}

// Wait enqueues fn to run when the queue is woken. The caller's task is
// suspended until fn fires.
func (q *WaitQueue) Wait(e *Engine, fn func()) {
	q.eng = e
	q.fns = append(q.fns, fn)
}

// Len returns the number of waiters.
func (q *WaitQueue) Len() int { return len(q.fns) - q.head }

// WakeAll schedules every waiter to run after d cycles, in FIFO order.
func (q *WaitQueue) WakeAll(d Time) {
	for i := q.head; i < len(q.fns); i++ {
		q.eng.Schedule(d, q.fns[i])
		q.fns[i] = nil
	}
	q.fns = q.fns[:0]
	q.head = 0
}

// WakeOne schedules the oldest waiter to run after d cycles. It reports
// whether a waiter was woken.
func (q *WaitQueue) WakeOne(d Time) bool {
	if q.Len() == 0 {
		return false
	}
	fn := q.fns[q.head]
	q.fns[q.head] = nil
	q.head++
	q.fns, q.head = compact(q.fns, q.head)
	q.eng.Schedule(d, fn)
	return true
}

// compact reclaims a deque's dead prefix once it reaches half the backing
// array, keeping memory proportional to live waiters rather than to total
// traffic through the queue. Amortized O(1) per operation.
func compact[T any](ps []T, head int) ([]T, int) {
	if head*2 < len(ps) {
		return ps, head
	}
	n := copy(ps, ps[head:])
	var zero T
	for i := n; i < len(ps); i++ {
		ps[i] = zero
	}
	return ps[:n], 0
}

// Resource is a FIFO mutual-exclusion resource in simulation time, used to
// model structures that serve one transaction at a time (a directory line,
// an L2 bank, a memory controller port). Its waiters are completion
// callbacks. The zero value is free.
//
// A free Acquire runs its continuation inline, without an event; a Release
// with waiters schedules the next grant at the release cycle.
type Resource struct {
	held bool
	q    WaitQueue
	// BusyCycles accumulates total time the resource was held, for
	// utilization statistics. Updated on Release.
	BusyCycles Time
	acquiredAt Time
}

// Acquire grants the resource to the caller and runs then at the grant
// cycle: immediately (inline, no event) when the resource is free,
// otherwise as a scheduled continuation when a Release hands it over.
// Ownership is granted in request order.
func (r *Resource) Acquire(e *Engine, then func()) {
	if !r.held {
		r.held = true
		r.acquiredAt = e.now
		then()
		return
	}
	r.q.Wait(e, then)
}

// Release hands the resource to the oldest waiter (whose continuation runs
// as an event at the current cycle), or frees it. Only the holder's
// continuation chain may call Release.
func (r *Resource) Release(e *Engine) {
	if !r.held {
		panic("sim: Release of a free Resource")
	}
	r.BusyCycles += e.now - r.acquiredAt
	if r.q.Len() == 0 {
		r.held = false
		return
	}
	// The next holder's grant event runs at this same cycle, so its hold
	// time is charged from now.
	r.acquiredAt = e.now
	r.q.WakeOne(0)
}
