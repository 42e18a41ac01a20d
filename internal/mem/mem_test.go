package mem

import (
	"fmt"
	"testing"

	"wisync/internal/noc"
	"wisync/internal/sim"
	"wisync/internal/simtest"
)

func newSys(t *testing.T, cores int) (*sim.Engine, *System) {
	t.Helper()
	eng := sim.NewEngine(1)
	mesh := noc.New(cores, 4)
	return eng, New(eng, mesh, DefaultParams(cores))
}

// read loads addr on core and hands the value to got (which may be nil).
func read(s *System, core int, addr uint64, got func(uint64)) simtest.Op {
	return func(next func()) {
		s.Read(core, addr, func(v uint64) {
			if got != nil {
				got(v)
			}
			next()
		})
	}
}

func write(s *System, core int, addr, val uint64) simtest.Op {
	return func(next func()) { s.Write(core, addr, val, next) }
}

func incr(v uint64) (uint64, bool) { return v + 1, true }

func rmw(s *System, core int, addr uint64, f func(uint64) (uint64, bool), got func(uint64)) simtest.Op {
	return func(next func()) {
		s.RMW(core, addr, f, func(v uint64) {
			if got != nil {
				got(v)
			}
			next()
		})
	}
}

func spin(s *System, core int, addr uint64, cond func(uint64) bool, got func(uint64)) simtest.Op {
	return func(next func()) {
		s.SpinUntil(core, addr, cond, func(v uint64) {
			if got != nil {
				got(v)
			}
			next()
		})
	}
}

// run1 executes ops as a single task and returns the finish time.
func run1(t *testing.T, eng *sim.Engine, ops ...simtest.Op) sim.Time {
	t.Helper()
	simtest.Seq(eng, "t0", ops...)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return eng.Now()
}

func TestReadMissThenHit(t *testing.T) {
	eng, s := newSys(t, 16)
	s.Poke(0x1000, 42)
	var miss sim.Time
	want42 := func(v uint64) {
		if v != 42 {
			t.Errorf("Read = %d, want 42", v)
		}
	}
	run1(t, eng,
		read(s, 0, 0x1000, want42),
		simtest.Do(func() { miss = eng.Now() }),
		read(s, 0, 0x1000, want42),
		simtest.Do(func() {
			hitLat := eng.Now() - miss
			if hitLat != s.Params().L1RT {
				t.Errorf("hit latency = %d, want %d", hitLat, s.Params().L1RT)
			}
			if miss <= hitLat {
				t.Errorf("miss latency %d not greater than hit latency %d", miss, hitLat)
			}
		}))
	if s.Stats.L1Hits != 1 || s.Stats.L1Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", s.Stats.L1Hits, s.Stats.L1Misses)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestColdMissPaysMemory(t *testing.T) {
	eng, s := newSys(t, 16)
	s.PokeCold(0x2000, 7)
	lat := run1(t, eng, read(s, 3, 0x2000, func(v uint64) {
		if v != 7 {
			t.Errorf("Read = %d, want 7", v)
		}
	}))
	if lat < s.Params().MemRT {
		t.Errorf("cold miss latency %d < MemRT %d", lat, s.Params().MemRT)
	}
	if s.Stats.MemFetches != 1 {
		t.Errorf("MemFetches = %d, want 1", s.Stats.MemFetches)
	}
}

func TestExclusiveGrantOnSoleReader(t *testing.T) {
	eng, s := newSys(t, 16)
	s.Poke(0x40, 1)
	run1(t, eng, read(s, 2, 0x40, func(uint64) {
		if st := s.L1State(2, 0x40); st != Exclusive {
			t.Errorf("sole reader state = %v, want E", st)
		}
	}))
}

func TestReadSharersAndWriteInvalidates(t *testing.T) {
	eng, s := newSys(t, 16)
	s.Poke(0x80, 5)
	simtest.Seq(eng, "r1", read(s, 1, 0x80, nil))
	simtest.Seq(eng, "r2", simtest.Sleep(eng, 100), read(s, 2, 0x80, nil))
	simtest.Seq(eng, "w3", simtest.Sleep(eng, 300), write(s, 3, 0x80, 9), simtest.Do(func() {
		if st := s.L1State(3, 0x80); st != Modified {
			t.Errorf("writer state = %v, want M", st)
		}
		if s.L1State(1, 0x80) != Invalid || s.L1State(2, 0x80) != Invalid {
			t.Error("readers not invalidated by write")
		}
	}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Peek(0x80) != 9 {
		t.Errorf("final value = %d, want 9", s.Peek(0x80))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestOwnerForwardsToReader(t *testing.T) {
	eng, s := newSys(t, 16)
	s.Poke(0x100, 1)
	simtest.Seq(eng, "w", write(s, 0, 0x100, 77))
	simtest.Seq(eng, "r", simtest.Sleep(eng, 500), read(s, 9, 0x100, func(v uint64) {
		if v != 77 {
			t.Errorf("read from owner = %d, want 77", v)
		}
		// MOESI: previous owner keeps the line in Owned.
		if st := s.L1State(0, 0x100); st != Owned {
			t.Errorf("previous owner state = %v, want O", st)
		}
		if st := s.L1State(9, 0x100); st != Shared {
			t.Errorf("reader state = %v, want S", st)
		}
	}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Stats.Forwards != 1 {
		t.Errorf("Forwards = %d, want 1", s.Stats.Forwards)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRMWAtomicUnderContention(t *testing.T) {
	eng, s := newSys(t, 64)
	s.Poke(0x200, 0)
	const perCore, cores = 20, 64
	for c := 0; c < cores; c++ {
		simtest.Seq(eng, fmt.Sprintf("c%d", c), simtest.Repeat(perCore, func(int) simtest.Op { return rmw(s, c, 0x200, incr, nil) }))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.Peek(0x200); got != perCore*cores {
		t.Errorf("counter = %d, want %d (lost updates)", got, perCore*cores)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCASSemantics(t *testing.T) {
	eng, s := newSys(t, 16)
	s.Poke(0x300, 10)
	cas := func(old, nv uint64, want bool) simtest.Op {
		return rmw(s, 0, 0x300, func(cur uint64) (uint64, bool) { return nv, cur == old }, func(v uint64) {
			if (v == old) != want {
				t.Errorf("CAS(%d,%d) swapped = %v, want %v", old, nv, v == old, want)
			}
		})
	}
	run1(t, eng, cas(10, 11, true), cas(10, 12, false))
	if s.Peek(0x300) != 11 {
		t.Errorf("value = %d, want 11", s.Peek(0x300))
	}
}

func TestSpinUntilWakesOnWrite(t *testing.T) {
	eng, s := newSys(t, 16)
	s.Poke(0x400, 0)
	var sawAt sim.Time
	simtest.Seq(eng, "spinner", spin(s, 1, 0x400, func(v uint64) bool { return v == 1 }, func(v uint64) {
		if v != 1 {
			t.Errorf("SpinUntil returned %d", v)
		}
		sawAt = eng.Now()
	}))
	simtest.Seq(eng, "writer", simtest.Sleep(eng, 1000), write(s, 2, 0x400, 1))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sawAt < 1000 {
		t.Errorf("spinner released at %d, before the write", sawAt)
	}
	if sawAt > 1200 {
		t.Errorf("spinner released at %d, too long after the write", sawAt)
	}
}

func TestSpinnerGeneratesNoTrafficWhileCached(t *testing.T) {
	eng, s := newSys(t, 16)
	s.Poke(0x500, 0)
	simtest.Seq(eng, "spinner", spin(s, 1, 0x500, func(v uint64) bool { return v == 1 }, nil))
	var before uint64
	simtest.Seq(eng, "observer",
		simtest.Sleep(eng, 5000),
		simtest.Do(func() { before = s.Stats.Transactions }),
		simtest.Sleep(eng, 5000),
		simtest.Do(func() {
			if d := s.Stats.Transactions - before; d != 0 {
				t.Errorf("spinner generated %d transactions while cached", d)
			}
		}),
		write(s, 2, 0x500, 1))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseStormSerializesAtDirectory(t *testing.T) {
	// N spinners on one line; one writer flips it. All spinners re-fetch,
	// and the refills serialize at the home directory: the last spinner
	// must observe the write much later than the first.
	eng, s := newSys(t, 64)
	s.Poke(0x600, 0)
	var releases []sim.Time
	for c := 1; c < 33; c++ {
		simtest.Seq(eng, fmt.Sprintf("s%d", c), spin(s, c, 0x600, func(v uint64) bool { return v == 1 },
			func(uint64) { releases = append(releases, eng.Now()) }))
	}
	simtest.Seq(eng, "writer", simtest.Sleep(eng, 2000), write(s, 0, 0x600, 1))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(releases) != 32 {
		t.Fatalf("%d spinners released, want 32", len(releases))
	}
	minT, maxT := releases[0], releases[0]
	for _, r := range releases {
		if r < minT {
			minT = r
		}
		if r > maxT {
			maxT = r
		}
	}
	if spread := maxT - minT; spread < 100 {
		t.Errorf("release spread = %d cycles; storm did not serialize", spread)
	}
}

func TestTreeBroadcastSpeedsInvalidation(t *testing.T) {
	// Invalidating many sharers should hold the line for less time with
	// the Baseline+ virtual-tree support.
	invTime := func(tree bool) sim.Time {
		eng := sim.NewEngine(1)
		mesh := noc.New(64, 4)
		p := DefaultParams(64)
		p.TreeBroadcast = tree
		s := New(eng, mesh, p)
		s.Poke(0x700, 0)
		for c := 1; c < 64; c++ {
			simtest.Seq(eng, fmt.Sprintf("r%d", c), read(s, c, 0x700, nil))
		}
		var start, lat sim.Time
		simtest.Seq(eng, "w", simtest.Sleep(eng, 3000), simtest.Do(func() { start = eng.Now() }),
			write(s, 0, 0x700, 1), simtest.Do(func() { lat = eng.Now() - start }))
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return lat
	}
	serial, tree := invTime(false), invTime(true)
	if tree >= serial {
		t.Errorf("tree invalidation (%d) not faster than serial (%d)", tree, serial)
	}
}

func TestL1EvictionRespectsAssociativity(t *testing.T) {
	eng, s := newSys(t, 16)
	// Touch L1Ways+2 lines mapping to the same set.
	p := s.Params()
	stride := uint64(p.L1Sets) << LineShift
	run1(t, eng, simtest.Repeat(p.L1Ways+2, func(i int) simtest.Op { return read(s, 0, uint64(i)*stride, nil) }))
	if s.Stats.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2", s.Stats.Evictions)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestEvictedDirtyLineReturnsHome(t *testing.T) {
	eng, s := newSys(t, 16)
	p := s.Params()
	stride := uint64(p.L1Sets) << LineShift
	run1(t, eng,
		write(s, 0, 0, 123),
		// Force eviction of line 0 by filling the set.
		simtest.Repeat(p.L1Ways, func(i int) simtest.Op { return read(s, 0, uint64(i+1)*stride, nil) }),
		simtest.Do(func() {
			if st := s.L1State(0, 0); st != Invalid {
				t.Errorf("dirty line still present: %v", st)
			}
		}),
		// Another core reads it; data must come from home, value intact.
		read(s, 5, 0, func(v uint64) {
			if v != 123 {
				t.Errorf("value after dirty eviction = %d, want 123", v)
			}
		}))
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRandomizedVsReferenceMemory(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		eng := sim.NewEngine(uint64(1000 + trial))
		mesh := noc.New(16, 4)
		s := New(eng, mesh, DefaultParams(16))
		const nAddrs = 24
		addrs := make([]uint64, nAddrs)
		for i := range addrs {
			// Some same-line pairs, some distinct lines.
			addrs[i] = uint64(i/2)<<LineShift | uint64(i%2)*8
			s.Poke(addrs[i], 0)
		}
		var sum [16]uint64
		for c := 0; c < 16; c++ {
			rng := sim.NewRand(uint64(c*977 + trial))
			simtest.Seq(eng, fmt.Sprintf("c%d", c), simtest.Repeat(200, func(int) simtest.Op {
				return func(next func()) {
					pause := func() { eng.SleepThen(sim.Time(rng.Intn(20)), next) }
					a := addrs[rng.Intn(nAddrs)]
					switch rng.Intn(3) {
					case 0:
						s.Read(c, a, func(v uint64) { sum[c] += v; pause() })
					case 1:
						s.Write(c, a, rng.Uint64()%1000, pause)
					case 2:
						s.RMW(c, a, incr, func(uint64) { pause() })
					}
				}
			}))
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Quiesced: every core must observe the same final value for
		// every address when reading through the protocol.
		for c := 0; c < 16; c++ {
			simtest.Seq(eng, fmt.Sprintf("check%d", c), simtest.Repeat(nAddrs, func(i int) simtest.Op {
				a := addrs[i]
				return read(s, c, a, func(v uint64) {
					if want := s.Peek(a); v != want {
						t.Errorf("trial %d: core %d reads %d at %#x, want %d", trial, c, v, a, want)
					}
				})
			}))
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIncrementsNeverLost(t *testing.T) {
	// Pure RMW increments from every core across several addresses; total
	// must equal the number of operations.
	eng, s := newSys(t, 32)
	addrs := []uint64{0x0, 0x8, 0x40, 0x48, 0x1000}
	for _, a := range addrs {
		s.Poke(a, 0)
	}
	const opsPerCore = 50
	for c := 0; c < 32; c++ {
		rng := sim.NewRand(uint64(c + 7))
		simtest.Seq(eng, fmt.Sprintf("c%d", c), simtest.Repeat(opsPerCore, func(int) simtest.Op {
			return func(next func()) {
				a := addrs[rng.Intn(len(addrs))]
				s.RMW(c, a, incr, func(uint64) { eng.SleepThen(sim.Time(rng.Intn(10)), next) })
			}
		}))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, a := range addrs {
		total += s.Peek(a)
	}
	if total != 32*opsPerCore {
		t.Errorf("total increments = %d, want %d", total, 32*opsPerCore)
	}
}

func TestHotLinePingPongCost(t *testing.T) {
	// Alternating RMWs from two far-apart cores must each pay an
	// ownership transfer; throughput is bounded by the mesh round trip.
	eng, s := newSys(t, 64)
	s.Poke(0x800, 0)
	var finish sim.Time
	const n = 50
	for _, c := range []int{0, 63} {
		simtest.Seq(eng, fmt.Sprintf("c%d", c),
			simtest.Repeat(n, func(int) simtest.Op { return rmw(s, c, 0x800, incr, nil) }),
			simtest.Do(func() { finish = max(finish, eng.Now()) }))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Peek(0x800) != 2*n {
		t.Errorf("counter = %d, want %d", s.Peek(0x800), 2*n)
	}
	perOp := finish / (2 * n)
	if perOp < 20 {
		t.Errorf("per-simtest.Op cost %d cycles is implausibly cheap for ping-pong", perOp)
	}
}
