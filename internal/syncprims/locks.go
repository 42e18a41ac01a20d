package syncprims

import (
	"wisync/internal/core"
	"wisync/internal/mem"
)

// spinLock is a test-and-test&set lock over any Var backend: spin until
// free, then attempt an atomic grab. On a cache backend the spinning is
// local (cached copy) and the grab is a coherence RMW; on the BM backend
// the spinning is local-replica polling and the grab is a wireless T&S
// (the WiSync lock of Table 2).
type spinLock struct {
	v Var
	// steps are the per-core recycled state machines, allocated lazily on
	// first use.
	steps []*spinStep
}

// mcsLock is the queue-based lock of Mellor-Crummey and Scott [31], used by
// Baseline+. Each thread spins on its own qnode line; lock handoff writes
// only the successor's line, so contention never storms the directory.
type mcsLock struct {
	tail uint64 // 0 = free, otherwise core+1
	// qnodes is the first of 2n lines holding the per-core qnode fields,
	// each on its own cache line: core i's locked flag, then its next
	// pointer (see locked and next).
	qnodes uint64
	// steps are the per-core recycled state machines, allocated lazily on
	// first use.
	steps []*mcsStep
}

func newMCSLock(m *core.Machine) *mcsLock {
	return &mcsLock{tail: m.AllocLine(), qnodes: m.AllocLines(2 * m.Cfg.Cores)}
}

// locked returns the address of core's qnode locked flag.
func (l *mcsLock) locked(core int) uint64 { return l.qnodes + uint64(2*core)*mem.LineBytes }

// next returns the address of core's qnode next pointer.
func (l *mcsLock) next(core int) uint64 { return l.qnodes + uint64(2*core+1)*mem.LineBytes }

// The locks run on per-core recycled step structs, like the barriers: a
// core holds at most one pending operation on a given lock at a time, so
// each (lock, core) pair owns a single state machine whose continuations
// are method values cached at construction. The steps slices are allocated
// lazily on first use. This keeps per-operation closures off the lock hot
// path — radiosity's serialized hot locks acquire millions of times per
// run.

// lockFree and lockTaken are the shared spin predicates (capture-free, so
// they never allocate).
func lockFree(x uint64) bool  { return x == 0 }
func lockTaken(x uint64) bool { return x != 0 }

// spinStep is spinLock's test-and-test&set retry loop of Acquire, step
// by step.
type spinStep struct {
	l    *spinLock
	t    *core.Task
	then func()

	onFreeFn func(uint64)
	onCASFn  func(bool)
}

func (l *spinLock) Acquire(t *core.Task, then func()) {
	if l.steps == nil {
		l.steps = make([]*spinStep, t.M.Cfg.Cores)
	}
	s := l.steps[t.Core]
	if s == nil {
		t.M.Eng.StepPoolMiss()
		s = &spinStep{l: l}
		s.onFreeFn = s.onFree
		s.onCASFn = s.onCAS
		l.steps[t.Core] = s
	} else {
		t.M.Eng.StepPoolHit()
	}
	s.t, s.then = t, then
	s.attempt()
}

func (s *spinStep) attempt() { s.l.v.SpinUntil(s.t, lockFree, s.onFreeFn) }

func (s *spinStep) onFree(uint64) { s.l.v.CAS(s.t, 0, 1, s.onCASFn) }

func (s *spinStep) onCAS(ok bool) {
	if !ok {
		s.attempt()
		return
	}
	then := s.then
	s.then = nil
	then()
}

func (l *spinLock) Release(t *core.Task, then func()) { l.v.Store(t, 0, then) }

// mcsStep is mcsLock's queue-lock protocol of Acquire/Release, one memory
// operation per step. One struct serves both operations — a core never has
// an acquire and a release of the same lock in flight together.
type mcsStep struct {
	l    *mcsLock
	t    *core.Task
	me   int
	pred uint64
	then func()

	// Acquire chain.
	afterInitFn   func()
	onSwapFn      func(uint64)
	afterLockedFn func()
	afterLinkFn   func()
	onAcqSpinFn   func(uint64)
	// Release chain.
	onNextFn    func(uint64)
	onTailCASFn func(bool)
	handoffFn   func(uint64)
	doneFn      func()
}

func (l *mcsLock) step(t *core.Task) *mcsStep {
	if l.steps == nil {
		l.steps = make([]*mcsStep, t.M.Cfg.Cores)
	}
	s := l.steps[t.Core]
	if s == nil {
		t.M.Eng.StepPoolMiss()
		s = &mcsStep{l: l, me: t.Core}
		s.afterInitFn = s.afterInit
		s.onSwapFn = s.onSwap
		s.afterLockedFn = s.afterLocked
		s.afterLinkFn = s.afterLink
		s.onAcqSpinFn = s.onAcqSpin
		s.onNextFn = s.onNext
		s.onTailCASFn = s.onTailCAS
		s.handoffFn = s.handoff
		s.doneFn = s.done
		l.steps[t.Core] = s
	} else {
		t.M.Eng.StepPoolHit()
	}
	s.t = t
	return s
}

func (l *mcsLock) Acquire(t *core.Task, then func()) {
	s := l.step(t)
	s.then = then
	t.Instr(8) // qnode setup and pointer arithmetic
	t.Write(l.next(s.me), 0, s.afterInitFn)
}

func (s *mcsStep) afterInit() { s.t.Swap(s.l.tail, uint64(s.me+1), s.onSwapFn) }

func (s *mcsStep) onSwap(pred uint64) {
	if pred == 0 {
		s.done()
		return
	}
	s.pred = pred
	s.t.Write(s.l.locked(s.me), 1, s.afterLockedFn)
}

func (s *mcsStep) afterLocked() {
	s.t.Write(s.l.next(int(s.pred-1)), uint64(s.me+1), s.afterLinkFn)
}

func (s *mcsStep) afterLink() {
	s.t.SpinUntil(s.l.locked(s.me), lockFree, s.onAcqSpinFn)
}

func (s *mcsStep) onAcqSpin(uint64) { s.done() }

func (l *mcsLock) Release(t *core.Task, then func()) {
	s := l.step(t)
	s.then = then
	t.Instr(6)
	t.Read(l.next(s.me), s.onNextFn)
}

func (s *mcsStep) onNext(succ uint64) {
	if succ != 0 {
		s.handoff(succ)
		return
	}
	s.t.CAS(s.l.tail, uint64(s.me+1), 0, s.onTailCASFn)
}

func (s *mcsStep) onTailCAS(ok bool) {
	if ok {
		s.done()
		return
	}
	// A successor is linking itself; wait for the link.
	s.t.SpinUntil(s.l.next(s.me), lockTaken, s.handoffFn)
}

func (s *mcsStep) handoff(succ uint64) { s.t.Write(s.l.locked(int(succ-1)), 0, s.doneFn) }

func (s *mcsStep) done() {
	then := s.then
	s.then = nil
	then()
}
