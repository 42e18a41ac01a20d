package syncprims

import (
	"fmt"

	"wisync/internal/core"
)

// centralBarrier is the Baseline barrier: a centralized sense-reversing
// barrier [16] with the arrival count incremented by a CAS retry loop (CAS
// is the Baseline machine's only atomic, Table 2) and a release flag on a
// separate cache line. Episode numbers replace the boolean sense so the
// barrier is trivially reusable. Under simultaneous arrivals the CAS loop
// serializes one full load+CAS round trip per arriver — the cost the paper
// measures for Baseline in Figure 7.
type centralBarrier struct {
	count   uint64
	release uint64
	n       uint64
	ep      []uint64 // per-core episode
	// steps holds the per-core recycled state machines, allocated lazily
	// on first use.
	steps []*centralStep
}

func newCentralBarrier(m *core.Machine, participants int) *centralBarrier {
	return &centralBarrier{
		count:   m.AllocLine(),
		release: m.AllocLine(),
		n:       uint64(participants),
		ep:      make([]uint64, m.Cfg.Cores),
	}
}

// tournamentBarrier is the Baseline+ barrier [31]: threads play a
// single-elimination tournament; at each round the statically-determined
// loser sets the winner's arrival flag and spins on its own wakeup flag.
// The champion then wakes its beaten opponents in reverse order, and each
// woken thread wakes the opponents it beat. Every flag lives on its own
// line, so all spinning is local.
type tournamentBarrier struct {
	n      int
	rounds int
	// arrive[r*n+idx] is the flag the round-r loser sets for winner idx.
	arrive []uint64
	// wake[idx] releases thread idx.
	wake []uint64
	ep   []uint64
}

func newTournamentBarrier(m *core.Machine, participants int) *tournamentBarrier {
	rounds := 0
	for v := 1; v < participants; v <<= 1 {
		rounds++
	}
	b := &tournamentBarrier{
		n:      participants,
		rounds: rounds,
		arrive: make([]uint64, rounds*participants),
		wake:   make([]uint64, participants),
		ep:     make([]uint64, m.Cfg.Cores),
	}
	for i := range b.arrive {
		b.arrive[i] = m.AllocLine()
	}
	for i := range b.wake {
		b.wake[i] = m.AllocLine()
	}
	return b
}

// dataBarrier is the WiSync Data-channel barrier (Section 4.3.2): a
// sense-reversing barrier in one 64-bit BM entry — arrival count in the
// low half, release episode in the high half, exactly the packing the
// paper suggests. Arrivals fetch&inc over the wireless channel; waiting
// spins on the local BM replica.
type dataBarrier struct {
	addr uint32
	n    uint64
	ep   []uint64
	// steps holds the per-core recycled state machines, allocated lazily
	// on first use.
	steps []*dataStep
}

// toneBarrier is the WiSync Tone-channel barrier (Section 4.3.3, Figure
// 4(c)): tone_st on arrival, then spin with tone_ld on the local BM entry,
// which the tone controllers toggle when the channel falls silent.
type toneBarrier struct {
	addr  uint32
	sense []uint64
	// steps holds the per-core recycled state machines, allocated lazily
	// on first use.
	steps []*toneStep
}

// The barriers run on per-core recycled step structs: a core waits on one
// episode of one barrier at a time, so each (barrier, core) pair owns a
// single state machine whose continuations are method values cached at
// construction. The steps slices are sized like the barriers' per-core
// episode arrays and allocated lazily on first use. This keeps per-episode
// closure captures off the barrier hot path — the pattern the kernels and
// apps interpreters use for their own loops (see kernels.readRanger,
// apps.appTask).

// centralStep is centralBarrier's CAS retry loop, last-arriver release and
// release-flag spin of Wait, step by step.
type centralStep struct {
	b    *centralBarrier
	t    *core.Task
	ep   uint64
	c    uint64 // count value observed by the pending CAS
	then func()

	onReadFn   func(uint64)
	onCASFn    func(bool)
	zeroDoneFn func()
	condFn     func(uint64) bool
	onSpinFn   func(uint64)
}

func (b *centralBarrier) Wait(t *core.Task, then func()) {
	b.ep[t.Core]++
	if b.steps == nil {
		b.steps = make([]*centralStep, len(b.ep))
	}
	s := b.steps[t.Core]
	if s == nil {
		t.M.Eng.StepPoolMiss()
		s = &centralStep{b: b}
		s.onReadFn = s.onRead
		s.onCASFn = s.onCAS
		s.zeroDoneFn = s.zeroDone
		s.condFn = s.cond
		s.onSpinFn = s.onSpin
		b.steps[t.Core] = s
	} else {
		t.M.Eng.StepPoolHit()
	}
	s.t, s.ep, s.then = t, b.ep[t.Core], then
	s.arrive()
}

func (s *centralStep) arrive() { s.t.Read(s.b.count, s.onReadFn) }

func (s *centralStep) onRead(c uint64) {
	s.c = c
	s.t.CAS(s.b.count, c, c+1, s.onCASFn)
}

func (s *centralStep) onCAS(ok bool) {
	if !ok {
		s.t.Instr(4)
		s.arrive()
		return
	}
	if s.c+1 == s.b.n {
		s.t.Write(s.b.count, 0, s.zeroDoneFn)
		return
	}
	s.t.SpinUntil(s.b.release, s.condFn, s.onSpinFn)
}

func (s *centralStep) zeroDone() {
	then := s.then
	s.then = nil
	s.t.Write(s.b.release, s.ep, then)
}

func (s *centralStep) cond(v uint64) bool { return v >= s.ep }

func (s *centralStep) onSpin(uint64) {
	then := s.then
	s.then = nil
	then()
}

// Wait runs the per-round winner/loser state machine.
func (b *tournamentBarrier) Wait(t *core.Task, then func()) {
	idx := t.Core
	if idx >= b.n {
		panic(fmt.Sprintf("syncprims: thread %d beyond tournament size %d", idx, b.n))
	}
	b.ep[t.Core]++
	ep := b.ep[t.Core]
	// wakeFrom releases every beaten opponent from round r down, one write
	// continuation at a time, then runs then.
	var wakeFrom func(r int)
	wakeFrom = func(r int) {
		for ; r >= 0; r-- {
			partner := idx + 1<<r
			if partner < b.n {
				rr := r
				t.Write(b.wake[partner], ep, func() { wakeFrom(rr - 1) })
				return
			}
		}
		then()
	}
	var round func(r int)
	round = func(r int) {
		if r == b.rounds {
			// Champion (never lost): wake everyone beaten, in reverse
			// round order.
			wakeFrom(b.rounds - 1)
			return
		}
		t.Instr(10) // round bookkeeping: role/partner/flag computation
		if idx&((1<<(r+1))-1) == 0 {
			// Potential winner of round r: wait for the partner (or take
			// a bye if it does not exist).
			partner := idx + 1<<r
			if partner < b.n {
				t.SpinUntil(b.arrive[r*b.n+idx], func(v uint64) bool { return v >= ep },
					func(uint64) { round(r + 1) })
				return
			}
			round(r + 1)
			return
		}
		// Loser of round r: report to the winner, then sleep until woken,
		// then wake the opponents beaten in earlier rounds.
		winner := idx - 1<<r
		lose := r
		t.Write(b.arrive[r*b.n+winner], ep, func() {
			t.SpinUntil(b.wake[idx], func(v uint64) bool { return v >= ep },
				func(uint64) { wakeFrom(lose - 1) })
		})
	}
	round(0)
}

// dataStep is dataBarrier's fetch&inc arrival, last-arriver release store
// and local-replica spin, step by step.
type dataStep struct {
	b    *dataBarrier
	t    *core.Task
	ep   uint64
	then func()

	onArriveFn func(uint64)
	condFn     func(uint64) bool
	onSpinFn   func(uint64)
}

func (b *dataBarrier) Wait(t *core.Task, then func()) {
	b.ep[t.Core]++
	if b.steps == nil {
		b.steps = make([]*dataStep, len(b.ep))
	}
	s := b.steps[t.Core]
	if s == nil {
		t.M.Eng.StepPoolMiss()
		s = &dataStep{b: b}
		s.onArriveFn = s.onArrive
		s.condFn = s.cond
		s.onSpinFn = s.onSpin
		b.steps[t.Core] = s
	} else {
		t.M.Eng.StepPoolHit()
	}
	s.t, s.ep, s.then = t, b.ep[t.Core], then
	t.BMFetchAdd(b.addr, 1, s.onArriveFn)
}

func (s *dataStep) onArrive(old uint64) {
	if (old&0xffffffff)+1 == s.b.n {
		// Last arriver: zero the count and publish the episode in one
		// wireless message.
		then := s.then
		s.then = nil
		s.t.BMStore(s.b.addr, s.ep<<32, then)
		return
	}
	s.t.BMSpinUntil(s.b.addr, s.condFn, s.onSpinFn)
}

func (s *dataStep) cond(v uint64) bool { return v>>32 >= s.ep }

func (s *dataStep) onSpin(uint64) {
	then := s.then
	s.then = nil
	then()
}

// toneStep is toneBarrier's tone_st, then the tone_ld spin.
type toneStep struct {
	b    *toneBarrier
	t    *core.Task
	then func()

	afterStoreFn func()
	afterWaitFn  func()
}

func (b *toneBarrier) Wait(t *core.Task, then func()) {
	if b.steps == nil {
		b.steps = make([]*toneStep, len(b.sense))
	}
	s := b.steps[t.Core]
	if s == nil {
		t.M.Eng.StepPoolMiss()
		s = &toneStep{b: b}
		s.afterStoreFn = s.afterStore
		s.afterWaitFn = s.afterWait
		b.steps[t.Core] = s
	} else {
		t.M.Eng.StepPoolHit()
	}
	s.t, s.then = t, then
	t.ToneStore(b.addr, s.afterStoreFn)
}

func (s *toneStep) afterStore() {
	s.t.ToneWait(s.b.addr, s.b.sense[s.t.Core], s.afterWaitFn)
}

func (s *toneStep) afterWait() {
	then := s.then
	s.then = nil
	s.b.sense[s.t.Core] ^= 1
	then()
}
