package mem

// This file implements the line store that backs the memory system's
// global per-line state: word values and directory entries. The L1s keep
// no per-line side state (see l1cache). Workload addresses come from the
// machine's linear allocator (a bump pointer starting at 1 MB), so the
// line-index keyspace is small and dense: a lookup is one shift, one
// bounds check and two pointer loads through a paged table of entry
// pointers, where the hash maps this store replaced cost ~5% of a
// Baseline run in hashing and probing.
//
// The keyspace is dense, but a run touches little of it. Baseline+'s MCS
// locks reserve 1+2n lines per lock and a run touches a handful of them:
// a 256-core dedup point touches ~1% of the lines on its touched pages.
// Entries are therefore allocated per touched line, in touch order, from
// a slab refilled a chunk at a time; a page holds only pointers.
//
// Addresses outside the dense window (sparse pokes in tests, or any
// workload that fabricates far-flung addresses) fall back to a map, so
// correctness never depends on the allocator's layout — only speed does.
// BenchmarkLineStore in store_test.go pins the dense path's advantage
// over the maps it replaced and the cost of first touches.

// pageShift is log2 of the lines per page. A page is 128 entry pointers
// (1 KB): small enough that a page reached by a single touched line costs
// little, large enough that the page table stays short.
const pageShift = 7

// maxDensePages bounds the directly indexed page table. Lines whose page
// index lands above it fall back to the sparse map, so the dense window
// only bounds speed, never correctness. 1<<15 pages cover 256 MB of
// simulated address space — far beyond the linear allocator's reach —
// with a worst-case page-pointer table of 256 KB.
const maxDensePages = 1 << 15

// slabChunk is how many entries one slab refill allocates.
const slabChunk = 64

// lineWords is the number of 64-bit words per coherence line.
const lineWords = LineBytes / 8

// lineStore is a paged dense map from line index to *lineEntry with a
// sparse overflow map. The zero value is empty and ready to use. Entry
// pointers are stable for the life of the store (slab chunks are never
// moved or reused), so callers may hold them across events.
type lineStore struct {
	pages  []*[1 << pageShift]*lineEntry
	sparse map[uint64]*lineEntry
	// slab is the unused tail of the current chunk of entries.
	slab []lineEntry
}

// get returns the entry for line, or nil if the line was never fetched.
func (st *lineStore) get(line uint64) *lineEntry {
	pi := line >> pageShift
	if pi < uint64(len(st.pages)) {
		if pg := st.pages[pi]; pg != nil {
			return pg[line&(1<<pageShift-1)]
		}
		return nil
	}
	return st.sparse[line]
}

// fetch returns the entry for line, creating it (and its page) on demand.
// A fresh entry's directory has no owner. Only the lookup of an existing
// dense entry stays in fetch, the hot path; first touches take fetchSlow.
func (st *lineStore) fetch(line uint64) *lineEntry {
	if pi := line >> pageShift; pi < uint64(len(st.pages)) {
		if pg := st.pages[pi]; pg != nil {
			if e := pg[line&(1<<pageShift-1)]; e != nil {
				return e
			}
		}
	}
	return st.fetchSlow(line)
}

// fetchSlow is fetch's first-touch path.
func (st *lineStore) fetchSlow(line uint64) *lineEntry {
	pi := line >> pageShift
	if pi < maxDensePages {
		// append's amortized doubling matters here: the bump allocator
		// produces ascending page indices, one new page at a time.
		for uint64(len(st.pages)) <= pi {
			st.pages = append(st.pages, nil)
		}
		pg := st.pages[pi]
		if pg == nil {
			pg = new([1 << pageShift]*lineEntry)
			st.pages[pi] = pg
		}
		e := st.alloc()
		pg[line&(1<<pageShift-1)] = e
		return e
	}
	e := st.sparse[line]
	if e == nil {
		if st.sparse == nil {
			st.sparse = make(map[uint64]*lineEntry)
		}
		e = st.alloc()
		st.sparse[line] = e
	}
	return e
}

// alloc hands out the next fresh entry from the slab.
func (st *lineStore) alloc() *lineEntry {
	if len(st.slab) == 0 {
		st.slab = make([]lineEntry, slabChunk)
	}
	e := &st.slab[0]
	st.slab = st.slab[1:]
	e.dir.owner = -1
	return e
}

// lineEntry is all global per-line state: the line's eight 64-bit words
// and its home directory entry.
type lineEntry struct {
	words [lineWords]uint64
	dir   dirLine
}

// wordIdx returns addr's word slot within its line. Word addresses are
// 8-byte aligned throughout the simulator (the linear allocator hands out
// line- and word-aligned addresses), so the low three address bits carry
// no information.
func wordIdx(addr uint64) uint64 { return (addr >> 3) & (lineWords - 1) }
