package mem

import (
	"runtime"
	"testing"

	"wisync/internal/noc"
	"wisync/internal/sim"
	"wisync/internal/simtest"
)

func TestPagedStoreDenseAndSparse(t *testing.T) {
	var st lineStore

	if st.get(100) != nil {
		t.Error("get of untouched line is non-nil")
	}
	e := st.fetch(100)
	if e.dir.owner != -1 {
		t.Errorf("fresh dense entry owner = %d, want -1", e.dir.owner)
	}
	e.words[3] = 42
	if got := st.get(100); got != e {
		t.Error("get after fetch returns a different entry (pointer instability)")
	}
	// Entries exist per fetched line: an untouched neighbour on the same
	// page stays absent, and fetching it yields a fresh, independent entry.
	if n := st.get(101); n != nil {
		t.Errorf("untouched neighbour on a touched page = %+v, want nil", n)
	}
	if n := st.fetch(101); n == e || n.dir.owner != -1 || n.words[3] != 0 {
		t.Errorf("neighbour entry not independently initialized: %+v", n)
	}

	// A line far beyond the dense window lands in the sparse map.
	huge := uint64(maxDensePages)<<pageShift + 12345
	s := st.fetch(huge)
	if s.dir.owner != -1 {
		t.Errorf("fresh sparse entry owner = %d, want -1", s.dir.owner)
	}
	s.words[0] = 7
	if got := st.get(huge); got != s {
		t.Error("sparse get after fetch returns a different entry")
	}
	if len(st.pages) >= maxDensePages {
		t.Errorf("sparse fetch grew the dense page table to %d pages", len(st.pages))
	}
	// The untouched dense/sparse boundary neighbors stay absent.
	if st.get(huge+1) != nil {
		t.Error("sparse neighbor materialized spontaneously")
	}
}

// TestLineStoreStablePointers fetches lines across several slab refills
// and page boundaries: every entry keeps its address and its contents,
// and every fresh entry starts with no owner.
func TestLineStoreStablePointers(t *testing.T) {
	var st lineStore
	const base = (1 << 20) / LineBytes
	n := 3*slabChunk + 5
	entries := make([]*lineEntry, n)
	for i := range entries {
		// Stride 3 spans several pages, in touch order like the allocator.
		e := st.fetch(base + uint64(3*i))
		if e.dir.owner != -1 {
			t.Fatalf("fresh entry %d owner = %d, want -1", i, e.dir.owner)
		}
		e.words[1] = uint64(i)
		e.dir.owner = i
		entries[i] = e
	}
	for i, want := range entries {
		line := base + uint64(3*i)
		if got := st.get(line); got != want {
			t.Fatalf("get(line %d) = %p, want %p: pointer moved after slab refills", i, got, want)
		}
		if got := st.fetch(line); got != want || got.words[1] != uint64(i) || got.dir.owner != i {
			t.Fatalf("fetch(line %d) = %p {word %d, owner %d}, want %p {%d, %d}",
				i, got, got.words[1], got.dir.owner, want, i, i)
		}
	}
}

// TestLineStoreStridedFootprint pins the store's footprint under the
// first-touch pattern of Baseline+'s MCS locks: at 256 cores each lock
// reserves 1+2*256 = 513 lines and a run touches few of them, so touched
// lines sit one per 513-line stride. For 2,400 such locks (dedup's count)
// whole pages of 128 entries would allocate ~59 MB; entries per touched
// line cost a 1 KB pointer page plus one ~184 B entry per lock, ~3.5 MB
// in all.
func TestLineStoreStridedFootprint(t *testing.T) {
	const (
		base    = (1 << 20) / LineBytes
		stride  = 513
		strides = 2400
		bound   = 6 << 20
	)
	var st lineStore
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint64(0); i < strides; i++ {
		st.fetch(base + i*stride).words[0] = i
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
		t.Errorf("touching %d lines %d apart allocated %d bytes, want <= %d", strides, stride, grew, bound)
	}
	runtime.KeepAlive(&st)
}

// TestSystemSparseAddressFallback drives the full memory system at an
// address far outside the linear allocator's range: correctness must not
// depend on the dense window.
func TestSystemSparseAddressFallback(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, noc.New(4, 2), DefaultParams(4))
	// Past the dense window.
	sparseAddr := uint64(maxDensePages<<pageShift)*LineBytes + 0x40

	s.Poke(sparseAddr, 99)
	if got := s.Peek(sparseAddr); got != 99 {
		t.Fatalf("Peek(sparse) = %d, want 99", got)
	}
	var got, got2 uint64
	simtest.Seq(eng, "r",
		read(s, 0, sparseAddr, func(v uint64) { got = v }),
		write(s, 1, sparseAddr, 123),
		read(s, 1, sparseAddr, func(v uint64) { got2 = v }))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 99 || got2 != 123 {
		t.Errorf("sparse Read/Write = %d, %d; want 99, 123", got, got2)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestWordIdxAliasing documents the dense store's word granularity: the
// simulator's addresses are 8-byte aligned (the machine allocator hands
// out line- and word-aligned addresses), and every word of a line is
// independent.
func TestWordIdxAliasing(t *testing.T) {
	eng := sim.NewEngine(1)
	s := New(eng, noc.New(4, 2), DefaultParams(4))
	base := uint64(1 << 20)
	for i := uint64(0); i < lineWords; i++ {
		s.Poke(base+i*8, 100+i)
	}
	for i := uint64(0); i < lineWords; i++ {
		if got := s.Peek(base + i*8); got != 100+i {
			t.Errorf("word %d = %d, want %d", i, got, 100+i)
		}
	}
}

// BenchmarkLineStore pins the dense paged store's advantage over the hash
// maps it replaced (words and directory entries keyed by address or
// line). The access pattern of paged and map models a transaction's hot
// lookups: a directory fetch plus a word read/write over a kernel-sized
// working set, with the 90%-reread locality a barrier-driven kernel
// exhibits. strided measures first touches instead: one line per 513-line
// stride, the footprint of 256-core MCS locks, in a fresh store per 2,400
// touches (one dedup run's locks); it reports time and bytes per touch and
// is not part of the regression gate's baseline.
func BenchmarkLineStore(b *testing.B) {
	// Working set: ~2000 lines starting at the allocator base, like a
	// 256-core TightLoop.
	const lines = 2048
	const base = (1 << 20) / LineBytes

	b.Run("paged", func(b *testing.B) {
		var st lineStore
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			line := base + uint64(i*37%lines)
			le := st.fetch(line)
			le.words[wordIdx(line*LineBytes)] = sink
			sink += le.words[0] + uint64(le.dir.owner)
		}
		_ = sink
	})
	b.Run("strided", func(b *testing.B) {
		const stride, locks = 513, 2400
		b.ReportAllocs()
		var st lineStore
		for i := 0; i < b.N; i++ {
			if i%locks == 0 {
				st = lineStore{}
			}
			st.fetch(base + uint64(i%locks)*stride).words[0] = uint64(i)
		}
	})
	b.Run("map", func(b *testing.B) {
		// The seed implementation: one map per concern.
		dir := make(map[uint64]*dirLine)
		words := make(map[uint64]uint64)
		b.ReportAllocs()
		var sink uint64
		for i := 0; i < b.N; i++ {
			line := base + uint64(i*37%lines)
			d, ok := dir[line]
			if !ok {
				d = &dirLine{owner: -1}
				dir[line] = d
			}
			addr := line * LineBytes
			words[addr] = sink
			sink += words[addr&^uint64(LineBytes-1)] + uint64(d.owner)
		}
		_ = sink
	})
}
