// Package mem implements the wired memory substrate of Table 1: private
// per-core L1 caches, a shared L2 distributed as one bank per core, a MOESI
// directory protocol, and four off-chip memory controllers, all on top of
// the 2D-mesh of package noc.
//
// The model is a combined functional + timing model. Values live in a
// single global word store (the simulator is single-threaded, so this is
// race-free); the protocol determines *when* each access completes and how
// transactions to the same line serialize. Serialization is modeled with a
// FIFO resource per directory line: the home directory processes one
// transaction on a line at a time, holding the line while invalidations and
// forwards are outstanding. This is what reproduces the synchronization
// costs the paper measures on Baseline and Baseline+: ownership ping-pong
// on contended CAS lines, and invalidation/refill storms on spin variables.
//
// Spin-waiting is modeled faithfully to hardware: a spinning core holds the
// line in Shared state and generates no traffic until the line is
// invalidated, at which point it re-fetches (SpinUntil).
package mem

import (
	"fmt"
	"math/bits"

	"wisync/internal/noc"
	"wisync/internal/sim"
)

// LineShift is log2 of the coherence line size (64 bytes).
const LineShift = 6

// LineBytes is the coherence line size.
const LineBytes = 1 << LineShift

// State is an L1 MOESI state.
type State uint8

// MOESI states for an L1 line.
const (
	Invalid State = iota
	Shared
	Exclusive
	Owned
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	}
	return "?"
}

// Params configures the memory system. All latencies are in cycles.
type Params struct {
	Cores int
	// L1RT is the L1 round-trip latency (Table 1: 2).
	L1RT sim.Time
	// L2RT is the local L2 bank round-trip latency (Table 1: 6).
	L2RT sim.Time
	// MemRT is the off-chip memory round trip (Table 1: 110).
	MemRT sim.Time
	// MemCtrlOcc is the per-request occupancy of a memory controller
	// port, bounding its bandwidth.
	MemCtrlOcc sim.Time
	// L1Sets and L1Ways give the private L1 geometry (32KB 2-way, 64B
	// lines: 256 sets x 2 ways).
	L1Sets, L1Ways int
	// TreeBroadcast enables the Baseline+ virtual-tree multicast support
	// for invalidation fan-out (Krishna et al. [22]).
	TreeBroadcast bool
}

// DefaultParams returns the Table 1 configuration for n cores.
func DefaultParams(n int) Params {
	return Params{
		Cores:      n,
		L1RT:       2,
		L2RT:       6,
		MemRT:      110,
		MemCtrlOcc: 8,
		L1Sets:     256,
		L1Ways:     2,
	}
}

// Stats accumulates memory-system counters.
type Stats struct {
	L1Hits        uint64
	L1Misses      uint64
	Transactions  uint64
	Invalidations uint64
	Forwards      uint64
	MemFetches    uint64
	Evictions     uint64
}

type bitset [4]uint64 // up to 256 cores

func (b *bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b *bitset) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b *bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b *bitset) empty() bool    { return b[0]|b[1]|b[2]|b[3] == 0 }

func (b *bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func (b *bitset) forEach(fn func(i int)) {
	for wi, w := range b {
		for ; w != 0; w &= w - 1 {
			fn(wi*64 + bits.TrailingZeros64(w))
		}
	}
}

// dirLine is the directory entry for one line, held at its home bank.
type dirLine struct {
	// res serializes transactions on the line. It is an AsyncResource:
	// transactions run as engine-scheduled continuation chains (see txn.go),
	// so line arbitration never parks a goroutine.
	res     sim.AsyncResource
	owner   int // core holding E/M/O, or -1
	sharers bitset
	inL2    bool
	// settleAt is when the most recent ownership grant completes at the
	// new owner (data, acks and fill all arrived). The home defers the
	// next transaction on the line until then: consecutive ownership
	// transfers serialize over a full round trip, as in real ack-counted
	// protocols where an owner with a pending grant defers or NACKs.
	settleAt sim.Time
}

// way is one packed L1 way: (line+1)<<wayStateBits | state. The zero way
// was never filled; it decodes as an Invalid copy of no real line, and
// since fill only ever rotates ways towards the front of a set, empty ways
// stay at the set's tail. An invalidated way keeps its line tag: fill
// reuses a way that still names the line before taking any other invalid
// one.
type way uint64

const wayStateBits = 3

func packWay(line uint64, st State) way { return way((line+1)<<wayStateBits | uint64(st)) }

func (w way) line() uint64       { return uint64(w)>>wayStateBits - 1 }
func (w way) state() State       { return State(w & (1<<wayStateBits - 1)) }
func (w *way) setState(st State) { *w = packWay(w.line(), st) }

// l1cache is one core's private L1 and its requester-side bookkeeping.
type l1cache struct {
	// ways holds L1Sets sets of L1Ways packed ways each, MRU-first within
	// a set. It is allocated on the core's first fill, not in New: a
	// machine is built per sweep point, and construction must stay
	// O(cores) (see TestNewAllocatesPerCoreOnly).
	ways []way
	// inflight lists the core's granted transactions whose reply is still
	// in flight. An invalidation of a listed line marks the entry stale,
	// and the fill it would have installed is dropped.
	inflight []*txn
	// spins lists the lines the core spins on. A spinner registers only
	// on a line valid in its L1, so invalidateL1 and evict — the only ways
	// a valid line leaves — find every waiter here.
	spins []spinWait
}

type spinWait struct {
	line uint64
	q    *sim.WaitQueue
}

// spinQueue returns line's spin-waiter queue, reusing a drained entry
// before adding one.
func (c *l1cache) spinQueue(line uint64) *sim.WaitQueue {
	var free *spinWait
	for i := range c.spins {
		if sw := &c.spins[i]; sw.q.Len() == 0 {
			free = sw
		} else if sw.line == line {
			return sw.q
		}
	}
	if free == nil {
		c.spins = append(c.spins, spinWait{q: &sim.WaitQueue{}})
		free = &c.spins[len(c.spins)-1]
	}
	free.line = line
	return free.q
}

// wakeSpinners wakes line's spinners, if any, after d cycles.
func (c *l1cache) wakeSpinners(line uint64, d sim.Time) {
	for _, sw := range c.spins {
		if sw.line == line && sw.q.Len() > 0 {
			sw.q.WakeAll(d)
			return
		}
	}
}

// System is the wired coherent memory hierarchy.
type System struct {
	eng  *sim.Engine
	mesh *noc.Mesh
	p    Params
	l1   []l1cache
	// lines is the paged dense store of per-line word values and
	// directory entries (see store.go).
	lines lineStore
	mc    [4]sim.AsyncResource
	// txnFree recycles transaction state machines; the engine is single-
	// threaded, so a plain freelist suffices and steady-state transactions
	// allocate nothing. hitFree and spinFree do the same for the async
	// face's L1-hit delivery and spin-loop continuations (async.go).
	txnFree  []*txn
	hitFree  []*hitCont
	spinFree []*memSpin
	// Stats is exported for harness reporting.
	Stats Stats
	// TraceLine and Trace enable transaction tracing for one line, for
	// debugging tests.
	TraceLine uint64
	Trace     func(string)
}

func (s *System) trace(line uint64, format string, args ...any) {
	if s.Trace != nil && line == s.TraceLine {
		s.Trace(fmt.Sprintf(format, args...))
	}
}

// New builds a memory system over mesh with the given parameters.
func New(eng *sim.Engine, mesh *noc.Mesh, p Params) *System {
	if p.Cores != mesh.Nodes() {
		panic(fmt.Sprintf("mem: %d cores but mesh has %d nodes", p.Cores, mesh.Nodes()))
	}
	if p.Cores > 256 {
		panic("mem: more than 256 cores not supported")
	}
	return &System{
		eng:  eng,
		mesh: mesh,
		p:    p,
		l1:   make([]l1cache, p.Cores),
	}
}

// Params returns the configuration the system was built with.
func (s *System) Params() Params { return s.p }

// Line returns the line address containing addr.
func Line(addr uint64) uint64 { return addr >> LineShift }

// home returns the core whose L2 bank is the home for line.
func (s *System) home(line uint64) int { return int(line % uint64(s.p.Cores)) }

func (s *System) dirFor(line uint64) *dirLine {
	return &s.lines.fetch(line).dir
}

// dirAt returns line's directory entry, or nil if the line was never
// touched (for invariant checks).
func (s *System) dirAt(line uint64) *dirLine {
	if le := s.lines.get(line); le != nil {
		return &le.dir
	}
	return nil
}

// wordAt reads the committed value of the word at addr (0 if never
// written).
func (s *System) wordAt(addr uint64) uint64 {
	if le := s.lines.get(Line(addr)); le != nil {
		return le.words[wordIdx(addr)]
	}
	return 0
}

// setWord writes the committed value of the word at addr.
func (s *System) setWord(addr, val uint64) {
	s.lines.fetch(Line(addr)).words[wordIdx(addr)] = val
}

// set returns the L1 set line maps to at core (nil before the core's
// first fill).
func (s *System) set(core int, line uint64) []way {
	c := &s.l1[core]
	if c.ways == nil {
		return nil
	}
	i := int(line&s.setsMask()) * s.p.L1Ways
	return c.ways[i : i+s.p.L1Ways]
}

// lookup finds the valid way holding line in core's L1, moving it to MRU.
func (s *System) lookup(core int, line uint64) *way {
	set := s.set(core, line)
	for i, w := range set {
		if w.line() == line && w.state() != Invalid {
			if i > 0 {
				copy(set[1:i+1], set[:i])
				set[0] = w
			}
			return &set[0]
		}
	}
	return nil
}
