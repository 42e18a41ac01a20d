package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Sharded conservative parallel-DES mode.
//
// A single sweep point at 256+ cores is strictly single-threaded in the
// base engine no matter how many host cores are available: one event
// queue, one dispatch loop. But the workload's event population is
// dominated by core-local timers — cache hit latencies, compute-phase
// flushes, protocol pipeline steps, BM retry backoffs — that belong to
// exactly one simulated core and carry a plain callback. Those events
// never need to live in the shared queue: they are partitioned by owning
// core across S shards, each with its own wheel+heap queue (the same
// two-level storage the global queue uses), and bulk-sorted concurrently
// up to a conservative horizon while the dispatch loop remains the only
// consumer.
//
// The design is exact, not approximately ordered:
//
//   - Every local event draws its sequence number from the engine's
//     global counter at the same call site the unsharded engine would, so
//     the (time, priority, sequence) total order over the union of the
//     global queue and all shards is identical to the single-queue order.
//
//   - The dispatch loop (dispatchLocal) only ever runs the minimum of
//     that union: the cached shard minimum (minT, minKey) is compared
//     against the global queue head before every local dispatch, and the
//     SleepThen zero-handoff fast path gains one guard so a continuation
//     can never self-advance the clock past a queued local event.
//
//   - Shard workers only move and sort event records; payloads always run
//     serially on the dispatching goroutine. A drain round fires on a
//     condition computed purely from simulation state (outboxes empty,
//     queue population past a threshold, dispatch minimum inside a
//     queue), so whether its per-shard work then runs serially or on
//     goroutines changes wall-clock time only — results and shard
//     diagnostics are byte-identical on any host.
//
// A drain round is the classic conservative-PDES horizon advance: every
// shard concurrently moves its queued events strictly below
// bound = min(global queue head, run limit+1, shard minimum + shardHorizon)
// into a sorted outbox (a wholesale buffer swap — rounds only fire when
// every outbox is empty, so there is never a merge). Between rounds the
// loop consumes outbox heads with an O(S) scan; events scheduled behind an
// outbox's sorted window dispatch straight from their shard queue via the
// same minimum comparison, preserving exact order without re-sorting.
const (
	// shardHorizon bounds how far past the current shard minimum a drain
	// round sorts when neither the global queue head nor the run limit
	// tightens the bound, so an idle global queue cannot pull entire
	// far-future populations into the outboxes. Matching the wheel span
	// aligns the sorted window with the engine's sleep distribution.
	shardHorizon = Time(wheelSpan)

	// parallelDrainMin is the shard-queue population below which bulk
	// rounds are not worth their bookkeeping: small populations dispatch
	// straight from the per-shard wheels at O(1) per event anyway.
	parallelDrainMin = 64
)

// shard is one partition's event storage: a private wheel+heap queue of
// core-local events plus a sorted outbox filled by bulk drain rounds.
// batch is the reusable drain buffer that swaps with out.
//
// mt/mk/mq cache the shard's own minimum — the smaller of its queue head
// and outbox head ((maxTime, ^0) when empty), mq whether it sits in the
// queue — so the set-level minimum scan reads three flat fields per shard
// instead of merging wheel and heap heads. push can only lower the cached
// minimum (one comparison); pops and drains refresh it from the real
// heads.
//
// drained records the last round's contribution, read by the stall
// accounting. The pad keeps neighboring shards off each other's cache
// lines during parallel rounds.
type shard struct {
	q       eventQueue
	out     []event
	outHead int
	batch   []event
	mt      Time
	mk      uint64
	mq      bool
	drained int
	_       [40]byte
}

// drain moves every queued event strictly before (bt, bk) into the outbox.
// The caller guarantees the outbox is empty, so the sorted batch becomes
// the outbox by a buffer swap: drained events are copied exactly once.
// The shard minimum is unchanged (events move within the shard), but its
// location may switch from queue to outbox, so the caller refreshes the
// location caches after the round.
func (s *shard) drain(bt Time, bk uint64) {
	n := 0
	for {
		head := s.q.first()
		if head == nil || head.t > bt || (head.t == bt && head.key >= bk) {
			break
		}
		s.batch = append(s.batch, s.q.pop())
		n++
	}
	s.drained = n
	if n == 0 {
		return
	}
	s.out, s.batch = s.batch, s.out[:0]
	s.outHead = 0
}

// refreshMin recomputes the shard's cached minimum from its queue head
// and outbox head.
func (s *shard) refreshMin() {
	s.mt, s.mk, s.mq = maxTime, ^uint64(0), false
	if s.outHead < len(s.out) {
		ev := &s.out[s.outHead]
		s.mt, s.mk = ev.t, ev.key
	}
	if ev := s.q.first(); ev != nil && (ev.t < s.mt || (ev.t == s.mt && ev.key < s.mk)) {
		s.mt, s.mk, s.mq = ev.t, ev.key, true
	}
}

// shardSet is the engine's sharded local-event store. minT/minKey cache
// the earliest queued local event across every shard ((maxTime, ^0) when
// empty), minShard the shard holding it and minInQueue whether it sits in
// that shard's queue (as opposed to its outbox), so the dispatch loop and
// the zero-handoff fast paths compare against the whole shard population
// in O(1).
type shardSet struct {
	shards     []shard
	qCount     int // events in shard queues
	outCount   int // events in shard outboxes
	minT       Time
	minKey     uint64
	minShard   int
	minInQueue bool
	// par runs drain rounds on goroutines: pointless with one shard or
	// one host core. It never changes which rounds fire.
	par bool

	// Diagnostics, surfaced through SchedStats.
	drains     uint64
	dispatched uint64
	stalls     uint64
}

func (ss *shardSet) pending() int { return ss.qCount + ss.outCount }

func (ss *shardSet) resetMin() {
	ss.minT, ss.minKey, ss.minShard, ss.minInQueue = maxTime, ^uint64(0), 0, false
}

// push files ev under its owning core's shard and updates both cached
// minima with one comparison each.
func (ss *shardSet) push(core int, ev event, now Time) {
	i := core % len(ss.shards)
	s := &ss.shards[i]
	s.q.push(ev, now)
	ss.qCount++
	if ev.t < s.mt || (ev.t == s.mt && ev.key < s.mk) {
		s.mt, s.mk, s.mq = ev.t, ev.key, true
	}
	if ev.t < ss.minT || (ev.t == ss.minT && ev.key < ss.minKey) {
		ss.minT, ss.minKey, ss.minShard, ss.minInQueue = ev.t, ev.key, i, true
	}
}

// rescan recomputes the set-level minimum from the per-shard caches: S
// flat comparisons, no queue access.
func (ss *shardSet) rescan() {
	ss.resetMin()
	for i := range ss.shards {
		s := &ss.shards[i]
		if s.mt < ss.minT || (s.mt == ss.minT && s.mk < ss.minKey) {
			ss.minT, ss.minKey, ss.minShard, ss.minInQueue = s.mt, s.mk, i, s.mq
		}
	}
}

// popMin removes and returns the event matching the cached minimum, then
// re-derives both cache levels (the popped shard from its real heads,
// the set from the flat per-shard caches).
func (ss *shardSet) popMin() event {
	s := &ss.shards[ss.minShard]
	var ev event
	if ss.minInQueue {
		ev = s.q.pop()
		ss.qCount--
	} else {
		ev = s.out[s.outHead]
		s.out[s.outHead] = event{}
		s.outHead++
		if s.outHead == len(s.out) {
			s.out = s.out[:0]
			s.outHead = 0
		}
		ss.outCount--
	}
	if ev.t != ss.minT || ev.key != ss.minKey {
		panic("sim: shard minimum cache out of sync")
	}
	s.refreshMin()
	ss.rescan()
	return ev
}

// clearAll empties every shard, for Shutdown.
func (ss *shardSet) clearAll() {
	for i := range ss.shards {
		s := &ss.shards[i]
		for s.q.len() > 0 {
			s.q.pop()
		}
		clear(s.out)
		s.out, s.outHead = s.out[:0], 0
		clear(s.batch)
		s.batch = s.batch[:0]
		s.drained = 0
		s.mt, s.mk, s.mq = maxTime, ^uint64(0), false
	}
	ss.qCount, ss.outCount = 0, 0
	ss.resetMin()
}

// ConfigureShards switches the engine's local-event store to n shards
// (n >= 1), or back to the unsharded engine (n <= 0, the default). One
// shard exercises the full horizon machinery without host parallelism,
// which is what the bit-identity suites lean on. It must be called before
// any local events are scheduled — in practice right after NewEngine — and
// panics otherwise (a programming error in a harness). Long-running
// callers that must survive bad inputs use SetShards instead.
func (e *Engine) ConfigureShards(n int) {
	if err := e.SetShards(n); err != nil {
		panic(err)
	}
}

// SetShards is ConfigureShards with an error return instead of a panic, so
// the machine-construction path of a long-running service can reject a
// reconfiguration attempt on a live engine without crashing the process.
func (e *Engine) SetShards(n int) error {
	if e.sh != nil && e.sh.pending() != 0 {
		return errors.New("sim: cannot reconfigure shards with local events pending")
	}
	if n <= 0 {
		e.sh = nil
		return nil
	}
	sh := &shardSet{
		shards: make([]shard, n),
		par:    n > 1 && runtime.GOMAXPROCS(0) > 1,
	}
	for i := range sh.shards {
		s := &sh.shards[i]
		s.mt, s.mk = maxTime, ^uint64(0)
	}
	sh.resetMin()
	e.sh = sh
	return nil
}

// Shards returns the configured shard count, 0 when unsharded.
func (e *Engine) Shards() int {
	if e.sh == nil {
		return 0
	}
	return len(e.sh.shards)
}

// LocalSleepThen is SleepThen for an event owned by a single simulated
// core: in the unsharded engine it is exactly SleepThen, and in sharded
// mode the slow path files the continuation under core's shard instead of
// the shared queue. The zero-handoff fast path is preserved verbatim,
// with one extra guard — the clock may not advance past a queued local
// event. Both forms draw one sequence number at this call site, so the
// sharded and unsharded schedules are the same total order.
func (e *Engine) LocalSleepThen(core int, d Time, then func()) {
	sh := e.sh
	if sh == nil {
		e.SleepThen(d, then)
		return
	}
	t := e.now + d
	if t < e.now {
		panic(fmt.Sprintf("sim: local sleep of %d cycles overflows the clock", d))
	}
	if t <= e.limit && sh.minT > t {
		if head := e.q.first(); head == nil || t < head.t || (t == head.t && head.key >= prioBit) {
			if e.cont != nil {
				panic("sim: LocalSleepThen fast path with a continuation already pending")
			}
			e.seq++
			e.now = t
			e.cont = then
			return
		}
	}
	e.seq++
	sh.push(core, event{t: t, key: e.seq, fn: then}, e.now)
}

// dispatchLocal runs the earliest queued local event if and only if it
// precedes every global queue event, returning whether it dispatched one.
// The caller (runEvents) guarantees the shard population is non-empty.
func (e *Engine) dispatchLocal() bool {
	sh := e.sh
	if sh.minT > e.limit {
		return false
	}
	head := e.q.first()
	if head != nil && (head.t < sh.minT || (head.t == sh.minT && head.key < sh.minKey)) {
		return false
	}
	// Bulk horizon advance: only when the population justifies a round
	// and every outbox is empty (so each shard's sorted batch swaps in
	// wholesale — no merging, ever). The condition depends on simulation
	// state alone, keeping rounds — and the diagnostics they feed —
	// host-independent.
	if sh.minInQueue && sh.outCount == 0 && sh.qCount >= parallelDrainMin {
		e.drainShards(head)
	}
	ev := sh.popMin()
	sh.dispatched++
	e.now = ev.t
	ev.fn()
	for e.cont != nil {
		fn := e.cont
		e.cont = nil
		fn()
	}
	return true
}

// drainShards runs one horizon advance: every shard moves its queued
// events strictly before the conservative bound into its outbox,
// concurrently when the host allows it. head is the global queue minimum
// (possibly nil). The bound always lies strictly past the cached shard
// minimum, so the round is never empty.
func (e *Engine) drainShards(head *event) {
	sh := e.sh
	bt, bk := sh.minT+shardHorizon, uint64(0)
	if bt < sh.minT {
		bt, bk = maxTime, ^uint64(0)
	}
	if head != nil && (head.t < bt || (head.t == bt && head.key < bk)) {
		bt, bk = head.t, head.key
	}
	if e.limit != maxTime {
		if lt := e.limit + 1; lt < bt || (lt == bt && bk > 0) {
			bt, bk = lt, 0
		}
	}
	if sh.par {
		// Shard workers touch only their own shard struct and read the
		// immutable bound: no shared mutable state, no locks. Payloads
		// never run here.
		var wg sync.WaitGroup
		for i := 1; i < len(sh.shards); i++ {
			s := &sh.shards[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.drain(bt, bk)
			}()
		}
		sh.shards[0].drain(bt, bk)
		wg.Wait()
	} else {
		for i := range sh.shards {
			sh.shards[i].drain(bt, bk)
		}
	}
	sh.drains++
	// Stall accounting comes from per-shard drain counts, identical in
	// serial and parallel rounds, so diagnostics stay deterministic. The
	// per-shard minimum values are unchanged by a drain; only their
	// queue-vs-outbox location moved, so refresh the location caches.
	moved, idle := 0, 0
	for i := range sh.shards {
		s := &sh.shards[i]
		if s.drained > 0 {
			moved += s.drained
			s.refreshMin()
		} else {
			idle++
		}
	}
	sh.qCount -= moved
	sh.outCount += moved
	if moved > 0 {
		sh.stalls += uint64(idle)
	}
	if sh.minInQueue {
		// The set minimum was drained into its shard's outbox.
		sh.minInQueue = false
	}
}
