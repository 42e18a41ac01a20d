package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"
)

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// pass is the outcome of running a workload's points once, in one order.
type pass struct {
	order []int
	dur   []time.Duration // per point, in order
	wall  time.Duration
}

// inprocRun is the state of one golden, wired256 or wireless256 run.
type inprocRun struct {
	o    options
	rep  *report
	pts  []point
	exp  map[string]expectation
	rng  *rand.Rand
	rows map[string]string // rows of the untimed passes, per point key
}

// runPass runs every point once in the given order, one at a time on the
// calling goroutine, and checks each row. Untimed passes are checked but
// not tallied.
//
// Each point starts from a collected heap. Without that, a point paid for
// collecting whatever its predecessor in the seeded order left behind,
// and p50 and p90 moved by 20-30% from seed to seed. The collection
// between points is outside the point's time but inside the pass's wall
// time, so points_per_s still pays for all of the garbage.
func (r *inprocRun) runPass(order []int, tally bool) pass {
	p := pass{order: order, dur: make([]time.Duration, len(order))}
	start := time.Now()
	for i, idx := range order {
		pt := r.pts[idx]
		runtime.GC()
		t := time.Now()
		row, err := pt.run()
		p.dur[i] = time.Since(t)
		v := check(pt.spec.ID(), row, err, r.exp[pt.key])
		if tally {
			r.rep.tally(pt.key, v)
		} else if !v.correct {
			r.rep.fail("%s differs from its expected row in an untimed pass", pt.key)
		}
		if err == nil && !tally {
			r.rows[pt.key] = row // kept out of timed passes: map writes would show in the profile
		}
	}
	p.wall = time.Since(start)
	return p
}

// measure runs whole passes until at least d has elapsed and, when
// needP90 is set, the samples support p90.
func (r *inprocRun) measure(d time.Duration, needP90 bool) []pass {
	var passes []pass
	start, n := time.Now(), 0
	for time.Since(start) < d || (needP90 && !supported(n, 0.9)) {
		p := r.runPass(r.rng.Perm(len(r.pts)), true)
		passes = append(passes, p)
		n += len(p.order)
	}
	return passes
}

// runInproc runs golden, wired256 or wireless256: the set-up (load the
// points and expectations, one untimed warm-up pass) three times, then
// timed passes for the run's seconds.
func runInproc(o options, start time.Time) (*report, error) {
	r := &inprocRun{o: o, rep: newReport(), rng: rand.New(rand.NewSource(o.seed)), rows: make(map[string]string)}
	var setupDur []float64
	for i := 0; i < setups; i++ {
		t := time.Now()
		if i == 0 {
			t = start
		}
		pts, exp, err := workloadPoints(o)
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			if _, ok := exp[p.key]; !ok {
				return nil, fmt.Errorf("no expected row for %s", p.key)
			}
		}
		r.pts, r.exp = pts, exp
		r.runPass(r.rng.Perm(len(r.pts)), false)
		setupDur = append(setupDur, time.Since(t).Seconds())
	}
	rep := r.rep
	if o.trace {
		rep.note("setup_s %.6g s", median(setupDur))
		return rep, r.traced()
	}
	rep.set("setup_s", median(setupDur), "s")

	// The peak RSS is the timed window's own: set-up may peak higher.
	if err := resetPeakRSS(os.Getpid()); err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	passes := r.measure(o.seconds, true)
	runtime.ReadMemStats(&m1)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	samples, wall := flatten(passes)
	var rates []float64
	for _, p := range passes {
		rates = append(rates, float64(len(p.order))/p.wall.Seconds())
	}
	rep.set("points_per_s", median(rates), "points/s")
	rep.set("point_ms_p50", percentile(samples, 0.5), "ms")
	rep.set("point_ms_p90", percentile(samples, 0.9), "ms")
	rep.set("peak_rss_mb", rss, "MB")
	rep.note("%s: %d points in %d passes, %.3f s; point_ms percentiles over %d samples",
		o.workload, len(samples), len(passes), wall.Seconds(), len(samples))
	rep.note("alloc_mb_per_point %.6g MB", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(len(samples)))
	return rep, nil
}

// flatten returns every per-point time in ms and the summed pass wall.
func flatten(passes []pass) ([]float64, time.Duration) {
	var samples []float64
	var wall time.Duration
	for _, p := range passes {
		for _, d := range p.dur {
			samples = append(samples, ms(d))
		}
		wall += p.wall
	}
	return samples, wall
}

// recordExpected writes the expectation file of a 256-core workload from
// this commit's rows: key<TAB>row, or key<TAB>ERROR <text>.
func recordExpected(o options, workload string) error {
	var pts []point
	switch workload {
	case "wired256":
		pts = wired256Points()
	case "wireless256":
		pts = wireless256Points()
	default:
		return fmt.Errorf("-record takes wired256 or wireless256, not %q", workload)
	}
	var b strings.Builder
	for _, p := range pts {
		row, err := p.run()
		if err != nil {
			row = errPrefix + err.Error()
		}
		if strings.ContainsAny(row, "\n") {
			return fmt.Errorf("%s: row spans lines", p.key)
		}
		fmt.Fprintf(&b, "%s\t%s\n", p.key, row)
	}
	return os.WriteFile(expectedPath(o, workload), []byte(b.String()), 0o644)
}
