package wireless

import (
	"reflect"
	"testing"

	"wisync/internal/sim"
)

// TestSendAsyncMirrorsSend drives a transmission scenario through Send and
// asserts the completions are the ones recorded from the earlier blocking
// Send (one goroutine-backed process per message): same nodes, same
// commit/withdraw outcomes, same cycles, in the same order, with the same
// channel statistics. The scenario covers
// every completion path: clean commits, a same-slot collision with
// backoff, FIFO deferral behind a busy channel, a grant-abandoned message
// (prepare hook), and a transfer withdrawn while deferred.
func TestSendAsyncMirrorsSend(t *testing.T) {
	type done struct {
		Node      int
		At        sim.Time
		Committed bool
	}
	const nodes = 8
	sends := []struct {
		node  int
		start sim.Time
	}{{0, 0}, {1, 0}, {2, 3}, {3, 5}, {4, 5}, {5, 6}, {6, 6}, {7, 40}}

	run := func() ([]done, Stats) {
		eng := sim.NewEngine(7)
		n := New(eng, nodes, Params{})
		// Node 3's message is stale at grant time and must be abandoned.
		n.SetPrepare(func(m Msg) bool { return m.Val != 99 })
		var results []done
		var cancelTok Token
		for _, sd := range sends {
			sd := sd
			msg := Msg{Src: sd.node, Addr: uint32(sd.node), Val: uint64(sd.node)}
			if sd.node == 3 {
				msg.Val = 99
			}
			var tok *Token
			if sd.node == 5 {
				tok = &cancelTok
			}
			eng.ScheduleAt(sd.start, sim.PrioNormal, func() {
				n.Send(msg, tok, func(committed bool) {
					results = append(results, done{sd.node, eng.Now(), committed})
				})
			})
		}
		// Withdraw node 5's transfer while it is still deferred behind the
		// busy channel.
		eng.ScheduleAt(8, sim.PrioNormal, func() { cancelTok.Cancel() })
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return results, n.Stats
	}

	got, gotStats := run()
	// The completions and statistics the blocking Send produced, recorded
	// as the reference.
	want := []done{
		{Node: 1, At: 7, Committed: true}, {Node: 5, At: 8, Committed: false},
		{Node: 2, At: 12, Committed: true}, {Node: 0, At: 17, Committed: true},
		{Node: 3, At: 17, Committed: false}, {Node: 4, At: 22, Committed: true},
		{Node: 6, At: 27, Committed: true}, {Node: 7, At: 45, Committed: true},
	}
	wantStats := Stats{Messages: 6, Collisions: 1, Withdrawn: 1, SkippedGrants: 1, BusyCycles: 32, LatencySum: 76}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("completions diverged from the blocking reference:\n got: %+v\nwant: %+v", got, want)
	}
	if gotStats != wantStats {
		t.Errorf("stats diverged from the blocking reference:\n got: %+v\nwant: %+v", gotStats, wantStats)
	}
	// The scenario must genuinely exercise the non-commit completions.
	if gotStats.Withdrawn == 0 {
		t.Error("scenario exercised no withdrawal; move the Cancel earlier")
	}
	if gotStats.SkippedGrants == 0 {
		t.Error("scenario exercised no grant abandon; check the prepare hook")
	}
	var fails int
	for _, d := range got {
		if !d.Committed {
			fails++
		}
	}
	if fails != 2 {
		t.Errorf("%d non-committed completions, want 2 (abandon + withdrawal)", fails)
	}
}
