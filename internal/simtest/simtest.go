// Package simtest writes test scenarios for continuation-form models as
// straight-line scripts: a script is a list of operations, each of which
// runs and then calls the continuation that starts the next one.
package simtest

import "wisync/internal/sim"

// Op is one step of a script: it runs and calls next when done. next must
// be its last simulation action (see sim.Engine.SleepThen).
type Op func(next func())

// Seq runs ops one after another as a task named name, and finishes the
// task after the last one.
func Seq(eng *sim.Engine, name string, ops ...Op) {
	eng.GoTask(name, func(task *sim.Task) {
		Chain(ops...)(task.Finish)
	})
}

// Chain is the Op running ops one after another.
func Chain(ops ...Op) Op {
	return func(next func()) {
		var run func(i int)
		run = func(i int) {
			if i == len(ops) {
				next()
				return
			}
			ops[i](func() { run(i + 1) })
		}
		run(0)
	}
}

// Repeat is the Op running body(0), body(1), ..., body(n-1) in sequence.
func Repeat(n int, body func(i int) Op) Op {
	return func(next func()) {
		var run func(i int)
		run = func(i int) {
			if i == n {
				next()
				return
			}
			body(i)(func() { run(i + 1) })
		}
		run(0)
	}
}

// While is the Op running body for as long as cond holds, checked before
// every round.
func While(cond func() bool, body Op) Op {
	return func(next func()) {
		var run func()
		run = func() {
			if !cond() {
				next()
				return
			}
			body(run)
		}
		run()
	}
}

// Do is the Op running fn, which takes no simulated time.
func Do(fn func()) Op { return func(next func()) { fn(); next() } }

// Sleep is the Op waiting d cycles.
func Sleep(eng *sim.Engine, d sim.Time) Op {
	return func(next func()) { eng.SleepThen(d, next) }
}

// SleepRand is the Op waiting a random 0..n-1 cycles, drawn from the
// engine's random stream when the Op runs.
func SleepRand(eng *sim.Engine, n int) Op {
	return func(next func()) { eng.SleepThen(sim.Time(eng.Rand().Intn(n)), next) }
}

// SleepUntil is the Op waiting until cycle t. If t is not in the future it
// continues at once, without scheduling an event.
func SleepUntil(eng *sim.Engine, t sim.Time) Op {
	return func(next func()) {
		if t <= eng.Now() {
			next()
			return
		}
		eng.SleepThen(t-eng.Now(), next)
	}
}
