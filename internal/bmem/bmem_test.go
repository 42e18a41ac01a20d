package bmem

import (
	"errors"
	"fmt"
	"testing"

	"wisync/internal/sim"
	"wisync/internal/simtest"
	"wisync/internal/wireless"
)

func newBM(t *testing.T, nodes int) (*sim.Engine, *BM) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := wireless.New(eng, nodes, wireless.DefaultParams())
	return eng, New(eng, net, nodes, DefaultParams())
}

// newBMEarly builds a BM running the literal Section 4.2.1 early-read RMW
// protocol, which the AFB/withdrawal tests exercise.
func newBMEarly(t *testing.T, nodes int) (*sim.Engine, *BM) {
	t.Helper()
	eng := sim.NewEngine(1)
	net := wireless.New(eng, nodes, wireless.DefaultParams())
	p := DefaultParams()
	p.RMWEarlyRead = true
	return eng, New(eng, net, nodes, p)
}

// ops builds script steps against one BM. A fault an operation reports
// synchronously fails the test.
type ops struct {
	t *testing.T
	b *BM
}

func (o ops) must(err error) {
	if err != nil {
		o.t.Fatal(err)
	}
}

// alloc allocates a timed entry for pid from node into *addr.
func (o ops) alloc(node int, pid uint16, addr *uint32) simtest.Op {
	return func(next func()) {
		o.must(o.b.Alloc(node, pid, false, func(a uint32) { *addr = a; next() }))
	}
}

func (o ops) store(node int, pid uint16, addr *uint32, val uint64) simtest.Op {
	return func(next func()) { o.must(o.b.Store(node, pid, *addr, val, next)) }
}

// load hands the value to got, which may be nil.
func (o ops) load(node int, pid uint16, addr *uint32, got func(uint64)) simtest.Op {
	return func(next func()) {
		o.must(o.b.Load(node, pid, *addr, func(v uint64) {
			if got != nil {
				got(v)
			}
			next()
		}))
	}
}

// rmw runs one RMW attempt; got (which may be nil) receives its outcome.
func (o ops) rmw(node int, pid uint16, addr *uint32, f func(uint64) (uint64, bool), got func(old uint64, ok bool)) simtest.Op {
	return func(next func()) {
		o.must(o.b.RMW(node, pid, *addr, f, func(old uint64, ok bool) {
			if got != nil {
				got(old, ok)
			}
			next()
		}))
	}
}

// rmwRetry repeats the RMW until it executes atomically (Figure 4(a)).
func (o ops) rmwRetry(node int, pid uint16, addr *uint32, f func(uint64) (uint64, bool)) simtest.Op {
	done := false
	return simtest.Chain(simtest.Do(func() { done = false }), simtest.While(func() bool { return !done },
		o.rmw(node, pid, addr, f, func(_ uint64, ok bool) { done = ok })))
}

func incr(v uint64) (uint64, bool) { return v + 1, true }

func TestAllocLoadStore(t *testing.T) {
	eng, b := newBM(t, 4)
	o := ops{t, b}
	var addr uint32
	simtest.Seq(eng, "p0",
		o.alloc(0, 1, &addr),
		simtest.Do(func() {
			if ok, pid := b.Allocated(addr); !ok || pid != 1 {
				t.Fatalf("Allocated = %v/%d, want true/1", ok, pid)
			}
		}),
		o.store(0, 1, &addr, 99),
		simtest.Do(func() {
			if !b.WCB(0) {
				t.Error("WCB clear after completed store")
			}
		}),
		o.load(0, 1, &addr, func(v uint64) {
			if v != 99 {
				t.Errorf("Load = %d, want 99", v)
			}
		}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadLatencyIsBMRT(t *testing.T) {
	eng, b := newBM(t, 4)
	o := ops{t, b}
	var addr uint32
	var start sim.Time
	simtest.Seq(eng, "p0",
		o.alloc(0, 1, &addr),
		simtest.Do(func() { start = eng.Now() }),
		o.load(0, 1, &addr, func(uint64) {
			if d := eng.Now() - start; d != b.Params().RT {
				t.Errorf("load latency = %d, want %d", d, b.Params().RT)
			}
		}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreVisibleToAllNodesAtCommit(t *testing.T) {
	eng, b := newBM(t, 8)
	o := ops{t, b}
	var addr uint32
	ready := false
	simtest.Seq(eng, "writer",
		o.alloc(0, 1, &addr),
		simtest.Do(func() { ready = true }),
		simtest.Sleep(eng, 10),
		o.store(0, 1, &addr, 1234))
	for n := 1; n < 8; n++ {
		simtest.Seq(eng, fmt.Sprintf("r%d", n),
			simtest.Sleep(eng, 200), // well after commit
			simtest.Do(func() {
				if !ready {
					t.Fatal("alloc did not complete")
				}
			}),
			o.load(n, 1, &addr, func(v uint64) {
				if v != 1234 {
					t.Errorf("node %d sees %d, want 1234", n, v)
				}
			}))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProtectionViolation(t *testing.T) {
	eng, b := newBM(t, 4)
	o := ops{t, b}
	var addr uint32
	simtest.Seq(eng, "p", o.alloc(0, 1, &addr), simtest.Do(func() {
		err := b.Load(1, 2, addr, func(uint64) { t.Error("faulting load completed") }) // PID 2 touching PID 1's entry
		var pe *ProtectionError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want ProtectionError", err)
		}
		if pe.PID != 2 || pe.Tag != 1 {
			t.Errorf("ProtectionError = %+v", pe)
		}
		if err := b.Store(1, 2, addr, 5, func() {}); err == nil {
			t.Error("store with wrong PID succeeded")
		}
	}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnallocatedAndOutOfRange(t *testing.T) {
	_, b := newBM(t, 4)
	var ae *AddrError
	if err := b.Load(0, 1, 7, func(uint64) {}); !errors.As(err, &ae) {
		t.Fatalf("unallocated load err = %v", err)
	}
	if err := b.Load(0, 1, 99999, func(uint64) {}); !errors.As(err, &ae) {
		t.Fatalf("out-of-range load err = %v", err)
	}
}

func TestRMWFetchAddNoContention(t *testing.T) {
	eng, b := newBM(t, 4)
	o := ops{t, b}
	var addr uint32
	simtest.Seq(eng, "p",
		o.alloc(0, 1, &addr),
		o.rmw(0, 1, &addr, func(v uint64) (uint64, bool) { return v + 5, true }, func(old uint64, ok bool) {
			if !ok || old != 0 {
				t.Fatalf("RMW = (%d, %v)", old, ok)
			}
			if b.Peek(addr) != 5 {
				t.Errorf("value = %d, want 5", b.Peek(addr))
			}
			if b.AFB(0) {
				t.Error("AFB set after clean RMW")
			}
		}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRMWConflictSetsAFBAndWithdraws(t *testing.T) {
	// Node 1 opens an RMW window; node 0's store to the same address
	// commits first (node 1's transfer is queued behind it), so node 1's
	// atomicity fails: AFB set, nothing broadcast by node 1.
	eng, b := newBMEarly(t, 4)
	o := ops{t, b}
	var addr uint32
	simtest.Seq(eng, "setup", o.alloc(0, 1, &addr))
	simtest.Seq(eng, "store0", simtest.Sleep(eng, 100), o.store(0, 1, &addr, 7))
	simtest.Seq(eng, "rmw1",
		simtest.Sleep(eng, 101), // join while node 0's store occupies the channel
		o.rmw(1, 1, &addr, incr, func(_ uint64, ok bool) {
			if ok {
				t.Error("RMW reported success despite conflicting commit")
			}
			if !b.AFB(1) {
				t.Error("AFB clear after atomicity failure")
			}
		}),
		// Figure 4(a): software retries.
		o.rmw(1, 1, &addr, incr, func(old2 uint64, ok2 bool) {
			if !ok2 {
				t.Fatal("retry RMW failed")
			}
			if old2 != 7 {
				t.Errorf("retry read %d, want 7", old2)
			}
			if b.Peek(addr) != 8 {
				t.Errorf("final value = %d, want 8", b.Peek(addr))
			}
		}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Stats.AFBFailures != 1 {
		t.Errorf("AFBFailures = %d, want 1", b.Stats.AFBFailures)
	}
}

func TestConcurrentFetchAddNoLostUpdates(t *testing.T) {
	// The full software retry protocol: every increment must land exactly
	// once despite collisions and AFB aborts.
	eng, b := newBM(t, 64)
	o := ops{t, b}
	addr, err := b.AllocBare(1, false)
	if err != nil {
		t.Fatal(err)
	}
	const perNode = 10
	for n := 0; n < 64; n++ {
		simtest.Seq(eng, fmt.Sprintf("n%d", n), simtest.Repeat(perNode, func(int) simtest.Op {
			return simtest.Chain(o.rmwRetry(n, 1, &addr, incr), simtest.SleepRand(eng, 50))
		}))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := b.Peek(addr); got != 64*perNode {
		t.Errorf("counter = %d, want %d", got, 64*perNode)
	}
}

func TestCASNoBroadcastOnCompareFailure(t *testing.T) {
	eng, b := newBM(t, 4)
	o := ops{t, b}
	var addr uint32
	var msgsBefore uint64
	simtest.Seq(eng, "p",
		o.alloc(0, 1, &addr),
		o.store(0, 1, &addr, 3),
		simtest.Do(func() { msgsBefore = b.net.Stats.Messages }),
		o.rmw(0, 1, &addr, func(v uint64) (uint64, bool) { return 9, v == 42 }, func(old uint64, ok bool) {
			if !ok || old != 3 {
				t.Fatalf("CAS = (%d,%v)", old, ok)
			}
			if b.net.Stats.Messages != msgsBefore {
				t.Error("failed CAS consumed a wireless message")
			}
			if b.Peek(addr) != 3 {
				t.Errorf("value changed to %d on failed CAS", b.Peek(addr))
			}
		}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkStoreLoad(t *testing.T) {
	eng, b := newBM(t, 4)
	o := ops{t, b}
	var addr uint32
	var start sim.Time
	want := [4]uint64{10, 20, 30, 40}
	simtest.Seq(eng, "p",
		func(next func()) {
			o.must(b.AllocContiguous(0, 1, 4, func(a uint32) { addr = a; next() }))
		},
		simtest.Do(func() { start = eng.Now() }),
		func(next func()) { o.must(b.BulkStore(0, 1, addr, want, next)) },
		simtest.Do(func() {
			if d := eng.Now() - start; d != 15 {
				t.Errorf("bulk store took %d cycles, want 15", d)
			}
		}),
		func(next func()) {
			o.must(b.BulkLoad(1, 1, addr, func(vals [4]uint64) {
				if vals != want {
					t.Errorf("BulkLoad = %v, want %v", vals, want)
				}
				next()
			}))
		})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkConflictsPendingRMW(t *testing.T) {
	// A bulk store covering the pending RMW's address must abort it
	// (early-read protocol).
	eng, b := newBMEarly(t, 4)
	o := ops{t, b}
	base, err := b.AllocBareContiguous(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	target := base + 2
	simtest.Seq(eng, "bulk", simtest.Sleep(eng, 100), func(next func()) {
		o.must(b.BulkStore(0, 1, base, [4]uint64{1, 2, 3, 4}, next))
	})
	simtest.Seq(eng, "rmw", simtest.Sleep(eng, 101), o.rmw(1, 1, &target, incr, func(_ uint64, ok bool) {
		if ok {
			t.Error("RMW survived a bulk overwrite of its address")
		}
	}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpinUntilReleasedByRemoteStore(t *testing.T) {
	eng, b := newBM(t, 4)
	o := ops{t, b}
	addr, _ := b.AllocBare(1, false)
	var woke sim.Time
	simtest.Seq(eng, "spinner", func(next func()) {
		o.must(b.SpinUntil(1, 1, addr, func(v uint64) bool { return v == 5 }, func(v uint64) {
			if v != 5 {
				t.Errorf("SpinUntil = %d", v)
			}
			woke = eng.Now()
			next()
		}))
	})
	simtest.Seq(eng, "writer", simtest.Sleep(eng, 500), o.store(0, 1, &addr, 5))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Store commits at ~505; spinner observes within a BM RT or two.
	if woke < 505 || woke > 515 {
		t.Errorf("spinner woke at %d, want 505..515", woke)
	}
}

func TestAllocUntilFullThenSpill(t *testing.T) {
	eng := sim.NewEngine(1)
	net := wireless.New(eng, 2, wireless.DefaultParams())
	p := DefaultParams()
	p.Entries = 8
	b := New(eng, net, 2, p)
	for i := 0; i < 8; i++ {
		if _, err := b.AllocBare(1, false); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := b.AllocBare(1, false); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if b.FreeEntries() != 0 {
		t.Errorf("FreeEntries = %d, want 0", b.FreeEntries())
	}
}

// TestAllocNRollsBackOnFull covers the multi-entry allocation: entries
// are broadcast one after another, and when the BM fills up part-way the
// entries already grabbed are freed (one broadcast each) before the error
// is delivered.
func TestAllocNRollsBackOnFull(t *testing.T) {
	eng := sim.NewEngine(1)
	net := wireless.New(eng, 2, wireless.DefaultParams())
	p := DefaultParams()
	p.Entries = 4
	b := New(eng, net, 2, p)
	var first []uint32
	var second error
	simtest.Seq(eng, "p",
		func(next func()) {
			b.AllocN(0, 1, 3, func(addrs []uint32, err error) {
				if err != nil {
					t.Fatal(err)
				}
				first = addrs
				next()
			})
		},
		func(next func()) {
			b.AllocN(0, 1, 3, func(addrs []uint32, err error) {
				if addrs != nil {
					t.Errorf("failed AllocN returned %v", addrs)
				}
				second = err
				next()
			})
		})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(first) != 3 || first[0] == first[1] || first[1] == first[2] {
		t.Errorf("AllocN(3) = %v, want 3 distinct entries", first)
	}
	if !errors.Is(second, ErrFull) {
		t.Errorf("AllocN past capacity: err = %v, want ErrFull", second)
	}
	if got := b.FreeEntries(); got != 1 {
		t.Errorf("FreeEntries = %d after rollback, want 1", got)
	}
	if b.Stats.Allocs != 4 || b.Stats.Frees != 1 || net.Stats.Messages != 5 {
		t.Errorf("allocs/frees/messages = %d/%d/%d, want 4/1/5", b.Stats.Allocs, b.Stats.Frees, net.Stats.Messages)
	}
}

func TestFreeMakesEntryReusable(t *testing.T) {
	eng, b := newBM(t, 4)
	o := ops{t, b}
	var addr, addr2 uint32
	var free0 int
	simtest.Seq(eng, "p",
		o.alloc(0, 1, &addr),
		simtest.Do(func() { free0 = b.FreeEntries() }),
		func(next func()) { o.must(b.Free(0, 1, addr, next)) },
		simtest.Do(func() {
			if b.FreeEntries() != free0+1 {
				t.Error("Free did not release the entry")
			}
		}),
		// Another PID can now claim the same address.
		o.alloc(1, 2, &addr2),
		simtest.Do(func() {
			if addr2 != addr {
				t.Errorf("expected address reuse, got %d then %d", addr, addr2)
			}
			if err := b.Load(0, 1, addr, func(uint64) {}); err == nil {
				t.Error("old owner can still access reallocated entry")
			}
		}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAllocsDisjoint(t *testing.T) {
	eng, b := newBM(t, 16)
	o := ops{t, b}
	addrs := make([]uint32, 16)
	for n := 0; n < 16; n++ {
		simtest.Seq(eng, fmt.Sprintf("n%d", n), o.alloc(n, uint16(n+1), &addrs[n]))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("address %d allocated twice", a)
		}
		seen[a] = true
	}
	if len(seen) != 16 {
		t.Errorf("%d distinct addresses, want 16", len(seen))
	}
}

func TestAbortPendingRMWOnContextSwitch(t *testing.T) {
	eng, b := newBMEarly(t, 4)
	o := ops{t, b}
	addr, _ := b.AllocBare(1, false)
	// Hold the channel so the victim's RMW stays pending.
	simtest.Seq(eng, "blocker", o.store(0, 1, &addr, 1), o.store(0, 1, &addr, 2))
	simtest.Seq(eng, "victim", simtest.Sleep(eng, 1), o.rmw(1, 1, &addr, incr, func(_ uint64, ok bool) {
		if ok {
			t.Error("RMW succeeded despite OS abort")
		}
		if !b.AFB(1) {
			t.Error("AFB clear after OS abort")
		}
	}))
	simtest.Seq(eng, "os", simtest.Sleep(eng, 4), simtest.Do(func() { // while the victim's transfer is queued
		if !b.AbortPendingRMW(1) {
			t.Error("AbortPendingRMW found nothing pending")
		}
		if b.AbortPendingRMW(1) {
			t.Error("second abort reported success")
		}
	}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaConsistencyRandomized(t *testing.T) {
	// Property: after any interleaving of stores/RMWs from many nodes,
	// all nodes read identical values (single total order of commits).
	for trial := 0; trial < 5; trial++ {
		eng := sim.NewEngine(uint64(50 + trial))
		net := wireless.New(eng, 16, wireless.DefaultParams())
		b := New(eng, net, 16, DefaultParams())
		o := ops{t, b}
		var addrs []uint32
		for i := 0; i < 6; i++ {
			a, _ := b.AllocBare(1, false)
			addrs = append(addrs, a)
		}
		for n := 0; n < 16; n++ {
			rng := sim.NewRand(uint64(n*31 + trial))
			simtest.Seq(eng, fmt.Sprintf("n%d", n), simtest.Repeat(30, func(int) simtest.Op {
				a := addrs[rng.Intn(len(addrs))]
				var op simtest.Op
				if rng.Intn(2) == 0 {
					op = o.store(n, 1, &a, rng.Uint64()%100)
				} else {
					op = o.rmwRetry(n, 1, &a, incr)
				}
				return simtest.Chain(op, simtest.Sleep(eng, sim.Time(rng.Intn(20))))
			}))
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		// One logical replica: verify all reads agree via Load from
		// every node.
		for i := range addrs {
			want := b.Peek(addrs[i])
			for n := 0; n < 16; n++ {
				simtest.Seq(eng, "check", o.load(n, 1, &addrs[i], func(v uint64) {
					if v != want {
						t.Errorf("node %d: %d != %d", n, v, want)
					}
				}))
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
