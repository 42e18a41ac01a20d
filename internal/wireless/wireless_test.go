package wireless

import (
	"fmt"
	"testing"

	"wisync/internal/sim"
	"wisync/internal/simtest"
)

// send is the script Op transmitting msg; ok (which may be nil) receives
// whether it committed.
func send(n *Network, msg Msg, tok *Token, ok func(bool)) simtest.Op {
	return func(next func()) {
		n.Send(msg, tok, func(committed bool) {
			if ok != nil {
				ok(committed)
			}
			next()
		})
	}
}

// mustCommit is an ok callback failing the test when a send fails.
func mustCommit(t *testing.T, what string) func(bool) {
	return func(committed bool) {
		if !committed {
			t.Errorf("%s failed", what)
		}
	}
}

func TestSingleSendTiming(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, DefaultParams())
	var commits []sim.Time
	n.Subscribe(func(m Msg, at sim.Time) { commits = append(commits, at) })
	simtest.Seq(eng, "tx", send(n, Msg{Src: 0, Addr: 1, Val: 42}, nil, func(committed bool) {
		if !committed {
			t.Error("Send reported failure")
		}
		if eng.Now() != 5 {
			t.Errorf("sender resumed at %d, want 5", eng.Now())
		}
	}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(commits) != 1 || commits[0] != 5 {
		t.Errorf("commits = %v, want [5]", commits)
	}
	if n.Stats.Messages != 1 || n.Stats.BusyCycles != 5 {
		t.Errorf("stats = %+v", n.Stats)
	}
}

func TestBulkTiming(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, DefaultParams())
	simtest.Seq(eng, "tx", send(n, Msg{Src: 0, Kind: KindBulk}, nil, func(bool) {
		if eng.Now() != 15 {
			t.Errorf("bulk commit at %d, want 15", eng.Now())
		}
	}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBusyChannelWaits(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, DefaultParams())
	var t2 sim.Time
	simtest.Seq(eng, "tx1", send(n, Msg{Src: 0}, nil, nil))
	simtest.Seq(eng, "tx2",
		simtest.Sleep(eng, 2), // channel busy with tx1 until cycle 5
		send(n, Msg{Src: 1}, nil, func(bool) { t2 = eng.Now() }))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// tx2 waits for cycle 5, transmits 5..10.
	if t2 != 10 {
		t.Errorf("tx2 committed at %d, want 10", t2)
	}
	if n.Stats.Collisions != 0 {
		t.Errorf("Collisions = %d, want 0", n.Stats.Collisions)
	}
}

func TestSimultaneousSendsCollide(t *testing.T) {
	eng := sim.NewEngine(7)
	n := New(eng, 4, DefaultParams())
	var commits int
	n.Subscribe(func(Msg, sim.Time) { commits++ })
	for i := 0; i < 2; i++ {
		simtest.Seq(eng, fmt.Sprintf("tx%d", i), send(n, Msg{Src: i}, nil, mustCommit(t, fmt.Sprintf("tx%d", i))))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if commits != 2 {
		t.Errorf("commits = %d, want 2", commits)
	}
	if n.Stats.Collisions < 1 {
		t.Errorf("Collisions = %d, want >= 1", n.Stats.Collisions)
	}
}

func TestTotalOrderAndAllDelivered(t *testing.T) {
	// Many nodes hammer the channel; every message must commit exactly
	// once, commits must not overlap, and all subscribers see the same
	// order.
	eng := sim.NewEngine(3)
	n := New(eng, 64, DefaultParams())
	var order1, order2 []int
	n.Subscribe(func(m Msg, at sim.Time) { order1 = append(order1, m.Src*1000+int(m.Val)) })
	n.Subscribe(func(m Msg, at sim.Time) { order2 = append(order2, m.Src*1000+int(m.Val)) })
	var lastCommit sim.Time
	n.Subscribe(func(m Msg, at sim.Time) {
		if at < lastCommit+5 && lastCommit != 0 {
			t.Errorf("commits overlap: %d after %d", at, lastCommit)
		}
		lastCommit = at
	})
	const msgsPerNode = 5
	for c := 0; c < 64; c++ {
		simtest.Seq(eng, fmt.Sprintf("n%d", c), simtest.Repeat(msgsPerNode, func(i int) simtest.Op {
			return simtest.Chain(
				send(n, Msg{Src: c, Val: uint64(i)}, nil, mustCommit(t, fmt.Sprintf("node %d msg %d", c, i))),
				simtest.SleepRand(eng, 30))
		}))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order1) != 64*msgsPerNode {
		t.Fatalf("delivered %d messages, want %d", len(order1), 64*msgsPerNode)
	}
	for i := range order1 {
		if order1[i] != order2[i] {
			t.Fatal("subscribers saw different orders")
		}
	}
	if n.Stats.Messages != 64*msgsPerNode {
		t.Errorf("Messages = %d", n.Stats.Messages)
	}
}

func TestPerSenderFIFO(t *testing.T) {
	// A single node's messages commit in issue order (the MAC does not
	// reorder), even under contention from others.
	eng := sim.NewEngine(11)
	n := New(eng, 8, DefaultParams())
	var vals []uint64
	n.Subscribe(func(m Msg, _ sim.Time) {
		if m.Src == 0 {
			vals = append(vals, m.Val)
		}
	})
	simtest.Seq(eng, "n0", simtest.Repeat(10, func(i int) simtest.Op {
		return send(n, Msg{Src: 0, Val: uint64(i)}, nil, nil)
	}))
	for c := 1; c < 8; c++ {
		simtest.Seq(eng, fmt.Sprintf("n%d", c), simtest.Repeat(5, func(int) simtest.Op {
			return send(n, Msg{Src: c}, nil, nil)
		}))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if v != uint64(i) {
			t.Fatalf("node 0 commit order %v not FIFO", vals)
		}
	}
}

func TestCancelWithdrawsPending(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, DefaultParams())
	var commits int
	n.Subscribe(func(Msg, sim.Time) { commits++ })
	var tok Token
	simtest.Seq(eng, "blocker", send(n, Msg{Src: 0}, nil, nil)) // occupies channel 0..5
	simtest.Seq(eng, "victim", simtest.Sleep(eng, 1), send(n, Msg{Src: 1}, &tok, func(committed bool) {
		if committed {
			t.Error("canceled Send reported commit")
		}
		if eng.Now() != 3 {
			t.Errorf("victim resumed at %d, want 3", eng.Now())
		}
	}))
	simtest.Seq(eng, "canceler", simtest.Sleep(eng, 3), simtest.Do(func() {
		if !tok.Cancel() {
			t.Error("Cancel returned false for pending request")
		}
		if tok.Cancel() {
			t.Error("second Cancel returned true")
		}
	}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if commits != 1 {
		t.Errorf("commits = %d, want 1 (victim withdrew)", commits)
	}
	if n.Stats.Withdrawn != 1 {
		t.Errorf("Withdrawn = %d, want 1", n.Stats.Withdrawn)
	}
}

func TestCancelTooLateFails(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, DefaultParams())
	var tok Token
	simtest.Seq(eng, "tx", send(n, Msg{Src: 0}, &tok, mustCommit(t, "Send")))
	simtest.Seq(eng, "late", simtest.Sleep(eng, 2), simtest.Do(func() { // transmission already in flight
		if tok.Cancel() {
			t.Error("Cancel succeeded mid-transmission")
		}
	}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestExponentialBackoffWindowGrows(t *testing.T) {
	// With many simultaneous senders, some nodes must reach backoff
	// exponents > 1, and all messages still get through.
	eng := sim.NewEngine(5)
	p := DefaultParams()
	p.Backoff = BackoffPersistent
	n := New(eng, 32, p)
	maxExp := 0
	n.Subscribe(func(Msg, sim.Time) {
		for _, b := range n.mac.(*backoffMAC).backoff {
			if b > maxExp {
				maxExp = b
			}
		}
	})
	for c := 0; c < 32; c++ {
		simtest.Seq(eng, fmt.Sprintf("n%d", c), send(n, Msg{Src: c}, nil, nil))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats.Messages != 32 {
		t.Errorf("Messages = %d, want 32", n.Stats.Messages)
	}
	if maxExp < 2 {
		t.Errorf("max backoff exponent = %d, want >= 2 under 32-way burst", maxExp)
	}
	if n.Stats.Collisions == 0 {
		t.Error("no collisions under 32-way simultaneous burst")
	}
}

func TestBackoffExponentCapped(t *testing.T) {
	// Note: the cap must comfortably exceed the burst size or contention
	// can never resolve (with w nodes contending inside a window smaller
	// than w, every slot collides — a real property of the protocol).
	eng := sim.NewEngine(5)
	p := DefaultParams()
	p.Backoff = BackoffPersistent
	p.MaxBackoffExp = 3
	n := New(eng, 4, p)
	for c := 0; c < 4; c++ {
		simtest.Seq(eng, fmt.Sprintf("n%d", c), simtest.Repeat(3, func(int) simtest.Op {
			return send(n, Msg{Src: c}, nil, nil)
		}))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats.Messages != 12 {
		t.Errorf("Messages = %d, want 12", n.Stats.Messages)
	}
	for c, b := range n.mac.(*backoffMAC).backoff {
		if b > 3 {
			t.Fatalf("node %d backoff exponent %d exceeds cap 3", c, b)
		}
	}
}

func TestConstantBackoffAblation(t *testing.T) {
	eng := sim.NewEngine(5)
	p := DefaultParams()
	p.ConstantBackoffWindow = 4
	n := New(eng, 16, p)
	for c := 0; c < 16; c++ {
		simtest.Seq(eng, fmt.Sprintf("n%d", c), send(n, Msg{Src: c}, nil, nil))
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Stats.Messages != 16 {
		t.Errorf("Messages = %d, want 16", n.Stats.Messages)
	}
}

func TestUtilizationAndLatencyStats(t *testing.T) {
	eng := sim.NewEngine(1)
	n := New(eng, 4, DefaultParams())
	simtest.Seq(eng, "tx", send(n, Msg{Src: 0}, nil, nil), simtest.Sleep(eng, 15)) // idle 5..20
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if u := n.Stats.Utilization(20); u != 0.25 {
		t.Errorf("Utilization = %v, want 0.25", u)
	}
	if l := n.Stats.MeanLatency(); l != 5 {
		t.Errorf("MeanLatency = %v, want 5", l)
	}
}

func TestSaturatedThroughputBound(t *testing.T) {
	// Under permanent demand, throughput cannot exceed 1 message per
	// MsgCycles, and backoff should keep goodput reasonable (> 50% of
	// channel capacity).
	eng := sim.NewEngine(9)
	n := New(eng, 64, DefaultParams())
	stop := sim.Time(20000)
	for c := 0; c < 64; c++ {
		simtest.Seq(eng, fmt.Sprintf("n%d", c),
			simtest.While(func() bool { return eng.Now() < stop }, send(n, Msg{Src: c}, nil, nil)))
	}
	eng.RunUntil(stop)
	eng.Shutdown()
	maxMsgs := uint64(stop / 5)
	if n.Stats.Messages > maxMsgs {
		t.Errorf("Messages = %d exceeds channel capacity %d", n.Stats.Messages, maxMsgs)
	}
	if n.Stats.Messages < maxMsgs/2 {
		t.Errorf("Messages = %d, less than half of capacity %d (backoff too aggressive)", n.Stats.Messages, maxMsgs)
	}
}

func TestDeterministicReplay(t *testing.T) {
	runOnce := func() []int {
		eng := sim.NewEngine(123)
		n := New(eng, 16, DefaultParams())
		var order []int
		n.Subscribe(func(m Msg, _ sim.Time) { order = append(order, m.Src) })
		for c := 0; c < 16; c++ {
			simtest.Seq(eng, fmt.Sprintf("n%d", c), simtest.Repeat(4, func(int) simtest.Op {
				return simtest.Chain(send(n, Msg{Src: c}, nil, nil), simtest.SleepRand(eng, 7))
			}))
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("wireless commit order not deterministic")
		}
	}
}
