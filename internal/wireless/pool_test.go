package wireless

import (
	"runtime"
	"runtime/debug"
	"testing"

	"wisync/internal/sim"
)

// TestRequestPoolRecycle drives a chain of sequential messages through one
// channel and asserts the request records recycle: the whole chain must be
// served by a single pooled record, returned to the freelist after the
// last commit.
func TestRequestPoolRecycle(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, Params{})
	const msgs = 50
	sent := 0
	var issue func(committed bool)
	issue = func(committed bool) {
		if sent > 0 && !committed {
			t.Error("uncontended message did not commit")
		}
		if sent == msgs {
			return
		}
		sent++
		n.Send(Msg{Src: sent % 4, Addr: 7, Val: uint64(sent)}, nil, issue)
	}
	eng.Schedule(0, func() { issue(true) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats.Messages != msgs {
		t.Fatalf("committed %d messages, want %d", n.Stats.Messages, msgs)
	}
	if got := len(n.reqFree); got != 1 {
		t.Errorf("freelist holds %d records after sequential chain, want 1", got)
	}
	if got := n.reqFree[0].epoch; got != msgs {
		t.Errorf("pooled record epoch %d, want %d (one bump per trip)", got, msgs)
	}
}

// TestStaleTokenCancel holds a Token past its message's commit and cancels
// only after the pooled record has been reissued to a different sender: the
// stale Cancel must be refused and the second message must still commit.
func TestStaleTokenCancel(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, Params{})
	var tok Token
	second := false
	eng.Schedule(0, func() {
		n.Send(Msg{Src: 0, Addr: 1, Val: 1}, &tok, func(committed bool) {
			if !committed {
				t.Error("first message did not commit")
			}
			// The record just returned to the pool; reissue it for a
			// different sender, without a token.
			n.Send(Msg{Src: 1, Addr: 2, Val: 2}, nil, func(committed bool) {
				second = committed
			})
			if tok.Cancel() {
				t.Error("stale Cancel succeeded; it would have withdrawn another sender's message")
			}
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !second {
		t.Error("second message did not commit")
	}
	if n.Stats.Withdrawn != 0 {
		t.Errorf("Withdrawn = %d, want 0", n.Stats.Withdrawn)
	}
}

// TestCanceledRequestNotPooled withdraws a busy-deferred transfer and
// asserts its record is NOT recycled: the MAC backlog still references it
// (the entry is skipped lazily by state), so pooling it would let a stale
// queue entry transmit a recycled record's new message.
func TestCanceledRequestNotPooled(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, Params{})
	var tok Token
	canceled := false
	eng.Schedule(0, func() {
		// Occupies the channel for MsgCycles; the second send defers.
		n.Send(Msg{Src: 0, Addr: 1, Val: 1}, nil, func(bool) {})
	})
	eng.Schedule(1, func() {
		n.Send(Msg{Src: 1, Addr: 2, Val: 2}, &tok, func(committed bool) {
			canceled = !committed
		})
	})
	eng.Schedule(2, func() {
		if !tok.Cancel() {
			t.Error("Cancel of a deferred transfer failed")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !canceled {
		t.Fatal("deferred transfer was not withdrawn")
	}
	if n.Stats.Withdrawn != 1 {
		t.Errorf("Withdrawn = %d, want 1", n.Stats.Withdrawn)
	}
	// Only the committed message's record may be in the pool.
	if got := len(n.reqFree); got != 1 {
		t.Errorf("freelist holds %d records, want 1 (canceled record must not be pooled)", got)
	}
}

// TestSendAsyncAllocFree pins the steady-state continuation send path at
// zero heap allocations per message: the request record, the commit event
// and the completion delivery are all pooled, and the MAC's slot slices and
// arbitration continuations recycle. It counts mallocs exactly (GC off,
// same goroutine) across a long message chain after a warm-up chain has
// populated every pool and grown every map.
func TestSendAsyncAllocFree(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, Params{})
	left := 0
	var issue func(bool)
	issue = func(bool) {
		if left == 0 {
			return
		}
		left--
		n.Send(Msg{Src: 1, Addr: 3, Val: 9}, nil, issue)
	}
	start := func() { issue(true) }
	run := func(k int) {
		left = k
		eng.Schedule(0, start)
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	const msgs = 20000
	run(msgs) // warm up pools, maps, queue storage
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(msgs)
	runtime.ReadMemStats(&after)
	if d := after.Mallocs - before.Mallocs; d != 0 {
		t.Errorf("steady-state Send allocated %d objects over %d messages, want 0", d, msgs)
	}
}
