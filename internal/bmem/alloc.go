package bmem

import "wisync/internal/wireless"

// Alloc allocates one 64-bit entry for pid, broadcasting the allocation so
// every replica creates the entry at the same address (Section 4.4). The
// address is chosen by the OS at issue time and reserved immediately, so
// concurrent allocations from different nodes never pick the same entry.
// tone marks the entry as a tone-barrier variable. then receives the
// address once the broadcast commits. Alloc returns ErrFull, without
// running then, when no entry is free; the caller is expected to fall back
// to a variable in regular cached memory.
func (b *BM) Alloc(node int, pid uint16, tone bool, then func(uint32)) error {
	addr := -1
	for i := range b.entries {
		if !b.entries[i].allocated {
			addr = i
			break
		}
	}
	if addr < 0 {
		return ErrFull
	}
	// Reserve now; the commit makes it architectural.
	e := &b.entries[addr]
	e.allocated = true
	e.pid = pid
	e.tone = tone
	e.val = 0
	b.Stats.Allocs++
	b.net.Send(wireless.Msg{Src: node, Addr: uint32(addr), Kind: wireless.KindAlloc, PID: pid}, nil,
		func(bool) { then(uint32(addr)) })
	return nil
}

// AllocN allocates n entries (not necessarily consecutive), one broadcast
// after another; then receives the addresses, or the first error. On an
// error the entries already grabbed are freed first, so callers can fall
// back cleanly. Useful for data+flag pairs.
func (b *BM) AllocN(node int, pid uint16, n int, then func([]uint32, error)) {
	addrs := make([]uint32, 0, n)
	var next func()
	next = func() {
		if len(addrs) == n {
			then(addrs, nil)
			return
		}
		err := b.Alloc(node, pid, false, func(a uint32) {
			addrs = append(addrs, a)
			next()
		})
		if err != nil {
			b.freeAll(node, pid, addrs, func() { then(nil, err) })
		}
	}
	next()
}

// freeAll frees addrs one broadcast after another, then runs then.
func (b *BM) freeAll(node int, pid uint16, addrs []uint32, then func()) {
	if len(addrs) == 0 {
		then()
		return
	}
	if err := b.Free(node, pid, addrs[0], func() { b.freeAll(node, pid, addrs[1:], then) }); err != nil {
		b.freeAll(node, pid, addrs[1:], then)
	}
}

// AllocContiguous allocates n consecutive entries (for Bulk transfers,
// which address four adjacent words), reserving and broadcasting one entry
// at a time; then receives the first address once the last broadcast
// commits. It returns ErrFull, without running
// then, when no run of n free entries exists.
func (b *BM) AllocContiguous(node int, pid uint16, n int, then func(uint32)) error {
	run := 0
	start := -1
	for i := range b.entries {
		if b.entries[i].allocated {
			run = 0
			continue
		}
		if run == 0 {
			start = i
		}
		run++
		if run == n {
			b.allocRun(node, pid, start, start, n, then)
			return nil
		}
	}
	return ErrFull
}

// allocRun reserves entry j of the run [start, start+n) and broadcasts its
// allocation, continuing with the next entry at the commit.
func (b *BM) allocRun(node int, pid uint16, start, j, n int, then func(uint32)) {
	if j == start+n {
		then(uint32(start))
		return
	}
	e := &b.entries[j]
	e.allocated = true
	e.pid = pid
	e.val = 0
	b.Stats.Allocs++
	b.net.Send(wireless.Msg{Src: node, Addr: uint32(j), Kind: wireless.KindAlloc, PID: pid}, nil,
		func(bool) { b.allocRun(node, pid, start, j+1, n, then) })
}

// Free deallocates addr in every replica; then runs once the broadcast
// commits.
func (b *BM) Free(node int, pid uint16, addr uint32, then func()) error {
	if err := b.check(node, pid, addr); err != nil {
		return err
	}
	b.Stats.Frees++
	b.net.Send(wireless.Msg{Src: node, Addr: addr, Kind: wireless.KindFree, PID: pid}, nil, func(bool) { then() })
	return nil
}

// FreeEntries returns how many entries are unallocated.
func (b *BM) FreeEntries() int {
	n := 0
	for i := range b.entries {
		if !b.entries[i].allocated {
			n++
		}
	}
	return n
}

// AllocBare allocates an entry with no timing and no broadcast, for test
// and harness setup phases that should not consume simulated cycles.
func (b *BM) AllocBare(pid uint16, tone bool) (uint32, error) {
	for i := range b.entries {
		if !b.entries[i].allocated {
			e := &b.entries[i]
			e.allocated = true
			e.pid = pid
			e.tone = tone
			e.val = 0
			b.Stats.Allocs++
			return uint32(i), nil
		}
	}
	return 0, ErrFull
}

// AllocBareContiguous is AllocBare for n consecutive entries.
func (b *BM) AllocBareContiguous(pid uint16, n int) (uint32, error) {
	run, start := 0, -1
	for i := range b.entries {
		if b.entries[i].allocated {
			run = 0
			continue
		}
		if run == 0 {
			start = i
		}
		run++
		if run == n {
			for j := start; j < start+n; j++ {
				e := &b.entries[j]
				e.allocated = true
				e.pid = pid
			}
			b.Stats.Allocs += uint64(n)
			return uint32(start), nil
		}
	}
	return 0, ErrFull
}
