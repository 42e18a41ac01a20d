package mem

// This file implements the paged dense line store that backs the memory
// system's global per-line state: word values and directory entries. The
// L1s keep no per-line side state (see l1cache). The previous implementation
// kept four hash maps keyed by line or word address; profiles put their
// hashing and probing at ~5% of a Baseline run. Workload addresses come
// from the machine's linear allocator (a bump pointer starting at 1 MB),
// so the line-index keyspace is small and dense — exactly what a paged
// array handles with one shift, one bounds check and one nil check per
// lookup.
//
// Addresses outside the dense window (sparse pokes in tests, or any
// workload that fabricates far-flung addresses) fall back to a map of
// individually allocated entries, so correctness never depends on the
// allocator's layout — only speed does. BenchmarkLineStore in
// store_test.go pins the dense path's advantage over the map it replaced.

// pageShift is log2 of the lines per page. Machines are built per sweep
// point, so a freshly touched page is zeroed memory on that point's
// critical path: pages of 128 ~180 B entries trade first-touch cost
// against page-table size.
const pageShift = 7

// maxDensePages bounds the directly indexed page table. Lines whose page
// index lands above it fall back to the sparse map, so the dense window
// only bounds speed, never correctness. 1<<15 pages cover 256 MB of
// simulated address space — far beyond the linear allocator's reach —
// with a worst-case page-pointer table of 256 KB.
const maxDensePages = 1 << 15

// lineWords is the number of 64-bit words per coherence line.
const lineWords = LineBytes / 8

// lineStore is a paged dense map from line index to *lineEntry with a
// sparse overflow map. The zero value is empty and ready to use. Entry
// pointers are stable for the life of the store (pages and sparse entries
// are never moved), so callers may hold them across events.
type lineStore struct {
	pages  []*[1 << pageShift]lineEntry
	sparse map[uint64]*lineEntry
}

// get returns the entry for line, or nil if the line was never touched.
func (st *lineStore) get(line uint64) *lineEntry {
	pi := line >> pageShift
	if pi < uint64(len(st.pages)) {
		if pg := st.pages[pi]; pg != nil {
			return &pg[line&(1<<pageShift-1)]
		}
		return nil
	}
	return st.sparse[line]
}

// fetch returns the entry for line, creating it (and its page) on demand.
// A fresh entry's directory has no owner.
func (st *lineStore) fetch(line uint64) *lineEntry {
	pi := line >> pageShift
	if pi < maxDensePages {
		// append's amortized doubling matters here: the bump allocator
		// produces ascending page indices, one new page at a time.
		for uint64(len(st.pages)) <= pi {
			st.pages = append(st.pages, nil)
		}
		pg := st.pages[pi]
		if pg == nil {
			pg = new([1 << pageShift]lineEntry)
			for i := range pg {
				pg[i].dir.owner = -1
			}
			st.pages[pi] = pg
		}
		return &pg[line&(1<<pageShift-1)]
	}
	e := st.sparse[line]
	if e == nil {
		if st.sparse == nil {
			st.sparse = make(map[uint64]*lineEntry)
		}
		e = &lineEntry{dir: dirLine{owner: -1}}
		st.sparse[line] = e
	}
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
