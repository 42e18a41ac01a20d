package mem

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"wisync/internal/noc"
	"wisync/internal/sim"
	"wisync/internal/simtest"
)

// raceOutcome is what one run of readDuringWrite observed.
type raceOutcome struct {
	s *System
	// raced reports that the write invalidated the reader's copy of
	// writeAddr's line while the reader's granting reply for readAddr was
	// in flight.
	raced bool
	got   uint64
}

// The cores of readDuringWrite on a 16-core mesh: owner takes readAddr's
// line exclusively first, so the reader's later read is a forwarded Shared
// grant; writer's write then invalidates the reader.
const (
	raceOwner  = 1
	raceReader = 5
	raceWriter = 9
)

// readDuringWrite runs, on a 16-core machine: raceOwner reads readAddr and
// the reader reads writeAddr at t=0; at t=1000 the reader reads readAddr,
// and at t=1000+delay the writer writes writeAddr. With async unset the
// reader task issues the read after sleeping until t=1000; with async set
// a bare engine event issues it at t=1000, the way hardware models do.
func readDuringWrite(t *testing.T, async bool, readAddr, writeAddr uint64, delay sim.Time) raceOutcome {
	t.Helper()
	eng, s := newSys(t, 16)
	s.Poke(readAddr, 5)
	s.Poke(writeAddr, 5)
	out := raceOutcome{s: s}
	rl := Line(readAddr)
	s.TraceLine = Line(writeAddr)
	s.Trace = func(msg string) {
		if strings.Contains(msg, fmt.Sprintf(" inv core=%d", raceReader)) {
			for _, tx := range s.l1[raceReader].inflight {
				if tx.line == rl {
					out.raced = true
				}
			}
		}
	}
	simtest.Seq(eng, "owner", read(s, raceOwner, readAddr, nil))
	var reader []simtest.Op
	if writeAddr != readAddr {
		reader = append(reader, read(s, raceReader, writeAddr, nil))
	}
	if async {
		eng.Schedule(1000, func() {
			s.Read(raceReader, readAddr, func(v uint64) { out.got = v })
		})
	} else {
		reader = append(reader,
			func(next func()) { eng.SleepThen(1000-eng.Now(), next) },
			read(s, raceReader, readAddr, func(v uint64) { out.got = v }))
	}
	simtest.Seq(eng, "reader", reader...)
	simtest.Seq(eng, "writer", simtest.Sleep(eng, 1000+delay), write(s, raceWriter, writeAddr, 9))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Errorf("delay %d: %v", delay, err)
	}
	return out
}

// TestStaleFillRejected covers a write that invalidates a reader's line
// while the reader's Shared reply is in flight: the reply still delivers
// the value it sampled, but the copy it carries must not be installed,
// because the directory no longer lists the reader as a sharer.
func TestStaleFillRejected(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(map[bool]string{false: "Read", true: "ReadAsync"}[async], func(t *testing.T) {
			hits := 0
			for d := sim.Time(0); d < 64; d++ {
				out := readDuringWrite(t, async, 0x80, 0x80, d)
				if !out.raced {
					continue
				}
				hits++
				if out.got != 5 {
					t.Errorf("delay %d: stale reply delivered %d, want the sampled 5", d, out.got)
				}
				if st := out.s.L1State(raceReader, 0x80); st != Invalid {
					t.Errorf("delay %d: reader state = %v after a stale fill, want I", d, st)
				}
			}
			if hits == 0 {
				t.Fatal("no write delay invalidated the reader while its reply was in flight")
			}
		})
	}
}

// TestInvalidationOfOtherLineKeepsFill covers the converse: invalidating a
// different line of the same core while a reply is in flight must not
// reject that reply's fill.
func TestInvalidationOfOtherLineKeepsFill(t *testing.T) {
	for _, async := range []bool{false, true} {
		t.Run(map[bool]string{false: "Read", true: "ReadAsync"}[async], func(t *testing.T) {
			hits := 0
			for d := sim.Time(0); d < 64; d++ {
				out := readDuringWrite(t, async, 0x80, 0xc0, d)
				if !out.raced {
					continue
				}
				hits++
				if st := out.s.L1State(raceReader, 0x80); st != Shared {
					t.Errorf("delay %d: reader state = %v, want S", d, st)
				}
				if st := out.s.L1State(raceReader, 0xc0); st != Invalid {
					t.Errorf("delay %d: invalidated line state = %v, want I", d, st)
				}
			}
			if hits == 0 {
				t.Fatal("no write delay invalidated the other line while the reply was in flight")
			}
		})
	}
}

// TestCheckInvariantsFlagsInflightReply pins that a granting reply left in
// flight is a violation at quiescence.
func TestCheckInvariantsFlagsInflightReply(t *testing.T) {
	_, s := newSys(t, 4)
	s.l1[2].inflight = append(s.l1[2].inflight, &txn{core: 2, line: 7, grant: Shared})
	if err := s.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "core 2") {
		t.Errorf("CheckInvariants = %v, want an in-flight violation at core 2", err)
	}
}

// TestPackedWayEdgeLines drives line 0, whose packed tag must not read as
// an empty way, and a line near the top of the address space through
// fill, hit, invalidation, eviction, L1State and DebugSet.
func TestPackedWayEdgeLines(t *testing.T) {
	for _, base := range []uint64{0, 1 << 60} {
		t.Run(fmt.Sprintf("%#x", base), func(t *testing.T) {
			eng, s := newSys(t, 16)
			p := s.Params()
			stride := uint64(p.L1Sets) << LineShift
			addrs := make([]uint64, p.L1Ways+1)
			for i := range addrs {
				addrs[i] = base + uint64(i)*stride
				s.Poke(addrs[i], 100+uint64(i))
			}
			debugSet := func() string { return fmt.Sprint(s.DebugSet(0, base)) }
			var hits uint64
			run1(t, eng,
				// An invalidated way keeps its tag ahead of the empty ways,
				// and the next fill of the set reuses it.
				read(s, 0, addrs[1], nil),
				write(s, 3, addrs[1], 101),
				simtest.Do(func() {
					if got, want := debugSet(), fmt.Sprintf("[line=%#x state=I]", Line(addrs[1])); got != want {
						t.Errorf("DebugSet after invalidation = %s, want %s", got, want)
					}
				}),
				read(s, 0, base+8, func(v uint64) {
					if v != 0 {
						t.Errorf("Read(word 1) = %d, want 0", v)
					}
					if got, want := debugSet(), fmt.Sprintf("[line=%#x state=E]", Line(base)); got != want {
						t.Errorf("DebugSet after fill = %s, want %s", got, want)
					}
					if st := s.L1State(0, base); st != Exclusive {
						t.Errorf("state after fill = %v, want E", st)
					}
					hits = s.Stats.L1Hits
				}),
				read(s, 0, base, func(v uint64) {
					if v != 100 {
						t.Errorf("Read hit = %d, want 100", v)
					}
					if s.Stats.L1Hits != hits+1 {
						t.Error("second read of the line missed")
					}
				}),
				// Fill the rest of the set, then one more: the first line,
				// now LRU, is evicted.
				simtest.Repeat(len(addrs)-1, func(i int) simtest.Op {
					return read(s, 0, addrs[i+1], func(v uint64) {
						if v != 101+uint64(i) {
							t.Errorf("Read(%#x) = %d", addrs[i+1], v)
						}
					})
				}),
				simtest.Do(func() {
					if st := s.L1State(0, base); st != Invalid {
						t.Errorf("LRU line state after eviction = %v, want I", st)
					}
					if s.Stats.Evictions != 1 {
						t.Errorf("Evictions = %d, want 1", s.Stats.Evictions)
					}
				}),
				read(s, 3, base, func(v uint64) {
					if v != 100 {
						t.Errorf("Read after eviction = %d, want 100", v)
					}
				}))
			if err := s.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestL1SetMRUOrder pins the replacement order: fills and hits move a line
// to the front of its set, and the line at the back is the one evicted.
func TestL1SetMRUOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	p := DefaultParams(16)
	p.L1Ways = 4
	s := New(eng, noc.New(16, 4), p)
	stride := uint64(p.L1Sets) << LineShift
	a := func(i int) uint64 { return 0x40 + uint64(i)*stride }
	order := func(idx ...int) string {
		var out []string
		for _, i := range idx {
			out = append(out, fmt.Sprintf("line=%#x state=E", Line(a(i))))
		}
		return fmt.Sprint(out)
	}
	setIs := func(what string, idx ...int) simtest.Op {
		return simtest.Do(func() {
			if got := fmt.Sprint(s.DebugSet(0, a(0))); got != order(idx...) {
				t.Errorf("after %s: %s, want %s", what, got, order(idx...))
			}
		})
	}
	run1(t, eng,
		simtest.Repeat(3, func(i int) simtest.Op { return read(s, 0, a(i), nil) }),
		setIs("fills", 2, 1, 0),
		read(s, 0, a(0), nil),
		read(s, 0, a(1), nil),
		setIs("hits", 1, 0, 2),
		read(s, 0, a(3), nil),
		read(s, 0, a(4), nil), // evicts a(2), the LRU
		setIs("eviction", 4, 3, 1, 0))
	if s.Stats.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", s.Stats.Evictions)
	}
}

// TestNewAllocatesPerCoreOnly guards machine construction cost: building a
// 256-core memory system allocates O(cores) bytes. The L1 ways are
// allocated on each core's first fill, not up front.
func TestNewAllocatesPerCoreOnly(t *testing.T) {
	const cores = 256
	eng := sim.NewEngine(1)
	mesh := noc.New(cores, 16)
	p := DefaultParams(cores)
	const limit = 64 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	allocs := testing.AllocsPerRun(runs, func() { New(eng, mesh, p) })
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call besides the measured runs.
	perNew := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	if perNew > limit {
		t.Errorf("New(%d cores) allocates %d bytes, want at most %d", cores, perNew, limit)
	}
	if allocs > 4 {
		t.Errorf("New(%d cores) makes %.0f allocations, want at most 4", cores, allocs)
	}
}
