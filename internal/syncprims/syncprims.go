// Package syncprims implements the synchronization primitives the paper's
// evaluation compares (Table 2), against a backend-neutral interface:
//
//   - Baseline: CAS spinlocks and a centralized sense-reversing barrier
//     over the cache hierarchy.
//   - Baseline+: MCS queue locks [31] and tournament barriers [31], plus
//     the virtual-tree NoC broadcast (enabled inside package mem).
//   - WiSyncNoT: test&set locks and fetch&inc barriers in Broadcast Memory
//     over the wireless Data channel.
//   - WiSync: the same locks, but barriers through the Tone channel.
//
// It also provides the higher-level idioms of Section 4.3: OR-barriers
// (eurekas), producer-consumer channels (with Bulk transfers), reductions,
// and multicast.
//
// Workload code obtains primitives from a Factory, which picks the
// implementation matching the machine's configuration, including the
// paper's overflow rule: when the BM fills up, variables transparently
// spill to regular cached memory (Section 4.2, as exercised by dedup and
// fluidanimate).
package syncprims

import (
	"wisync/internal/core"
)

// Every primitive is driven in continuation form: an operation returns
// immediately and runs its completion callback (then) at the cycle the
// operation completes, following the core.Task continuation discipline.

// Barrier holds each participant until all participants arrive: then runs
// once everyone has.
type Barrier interface {
	Wait(t *core.Task, then func())
}

// Lock is a mutual exclusion lock: Acquire's then runs once the lock is
// held, Release's once it is handed on.
type Lock interface {
	Acquire(t *core.Task, then func())
	Release(t *core.Task, then func())
}

// Var is a 64-bit shared synchronization variable.
type Var interface {
	Load(t *core.Task, then func(uint64))
	Store(t *core.Task, v uint64, then func())
	// CAS performs compare-and-swap; then reports whether it swapped.
	CAS(t *core.Task, old, nv uint64, then func(bool))
	// FetchAdd atomically adds delta; then receives the previous value.
	FetchAdd(t *core.Task, delta uint64, then func(uint64))
	// SpinUntil spins (hardware-faithfully for the backend) until cond
	// holds; then receives the satisfying value.
	SpinUntil(t *core.Task, cond func(uint64) bool, then func(uint64))
	// InBM reports whether the variable lives in Broadcast Memory.
	InBM() bool
}
