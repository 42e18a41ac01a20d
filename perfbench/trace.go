package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"wisync/internal/apps"
	"wisync/internal/config"
	"wisync/internal/core"
	"wisync/internal/sim"
)

// serveOnly are the per-layer metrics of the service path. In-process
// workloads do not touch those layers and report them as 0.
var serveOnly = []struct{ name, unit string }{
	{"sweepcache.hit_us", "us"}, {"sweepcache.disk_hit_us", "us"},
	{"sweepcache.hit_ratio", "ratio"}, {"sweepcache.inflight_waits", "count"},
	{"sweepcache.store_ms", "ms"}, {"workerpool.run_ms", "ms"}, {"workerpool.wire_ms", "ms"},
	{"workerpool.restarts", "count"}, {"journal.append_ms", "ms"}, {"journal.complete_ms", "ms"},
	{"server.first_row_ms", "ms"}, {"server.rejected_429", "count"},
	{"jobs_per_s", "jobs/s"}, {"warm_job_ms_p50", "ms"}, {"warm_job_ms_p90", "ms"},
	{"cold_job_ms_p50", "ms"}, {"cold_job_ms_p90", "ms"},
}

// traced is the in-process traced run: untraced passes for half the
// run's seconds, then the same passes in the same order under the CPU and
// allocation profiles, then the layer probes outside any timed window.
func (r *inprocRun) traced() error {
	rep := r.rep
	untraced := r.measure(r.o.seconds/2, false)
	_, wallA := flatten(untraced)

	prof, err := startProfiles(r.o.tmp)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var passes []pass
	for _, p := range untraced {
		passes = append(passes, r.runPass(p.order, true))
	}
	runtime.ReadMemStats(&m1)
	samples, wallB := flatten(passes)
	n := float64(len(samples))
	if err := prof.stop(rep, n); err != nil {
		return err
	}
	rep.set("trace.overhead_pct", 100*(wallB.Seconds()-wallA.Seconds())/wallA.Seconds(), "%")
	rep.set("harness.run_ms", median(samples), "ms")
	rep.set("alloc_mb_per_point", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/n, "MB/point")
	rep.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC)/n, "1/point")
	rep.note("%s traced: %d points in %d passes; untraced %.3f s, traced %.3f s",
		r.o.workload, len(samples), len(passes), wallA.Seconds(), wallB.Seconds())

	probeCoreNew(rep, r.pts)
	probeSpec(rep, r.pts)
	probeEngine(rep, r.pts)
	var c counters
	for _, p := range r.pts {
		if row, ok := r.rows[p.key]; ok {
			if err := c.add(row); err != nil {
				return err
			}
		}
	}
	c.report(rep)
	for _, m := range serveOnly {
		rep.set(m.name, 0, m.unit)
	}
	return nil
}

// profiles are the CPU profile and the allocation snapshot a traced
// window runs under.
type profiles struct {
	dir     string
	cpuFile *os.File
}

func startProfiles(tmp string) (*profiles, error) {
	dir, err := os.MkdirTemp(tmp, "prof-")
	if err != nil {
		return nil, err
	}
	p := &profiles{dir: dir}
	if err := p.writeAllocs("alloc0.pb.gz"); err != nil {
		return nil, err
	}
	if p.cpuFile, err = os.Create(filepath.Join(dir, "cpu.pb.gz")); err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(p.cpuFile); err != nil {
		p.cpuFile.Close()
		return nil, err
	}
	return p, nil
}

// writeAllocs snapshots the cumulative allocation profile after a full
// collection, so it covers every allocation made so far.
func (p *profiles) writeAllocs(name string) error {
	runtime.GC()
	f, err := os.Create(filepath.Join(p.dir, name))
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stop ends the traced window and reports cpu.* (self time per point by
// layer), cpu.share_sum_pct and alloc_mb.* (bytes allocated per point by
// the innermost simulator frame), each divided over points.
func (p *profiles) stop(rep *report, points float64) error {
	pprof.StopCPUProfile()
	if err := p.cpuFile.Close(); err != nil {
		return err
	}
	if err := p.writeAllocs("alloc1.pb.gz"); err != nil {
		return err
	}
	defer os.RemoveAll(p.dir)

	cpu, total, err := pprofTraces(filepath.Join(p.dir, "cpu.pb.gz"), "", "ns", "")
	if err != nil {
		return err
	}
	byBucket := aggregate(cpu, cpuBucket)
	var sum int64
	for _, b := range cpuBuckets() {
		rep.set("cpu."+b, float64(byBucket[b])/1e6/points, "ms/point")
		sum += byBucket[b]
	}
	share := 0.0
	if total > 0 {
		share = 100 * float64(sum) / float64(total)
	}
	rep.note("cpu.* shares sum to %.3f%% of the profile's samples", share)
	if math.Abs(share-100) > 1 {
		rep.fail("cpu.* shares sum to %.2f%%, not 100%% +- 1%%", share)
	}

	allocs, _, err := pprofTraces(filepath.Join(p.dir, "alloc1.pb.gz"),
		filepath.Join(p.dir, "alloc0.pb.gz"), "B", "alloc_space")
	if err != nil {
		return err
	}
	byPkg := aggregate(allocs, allocBucket)
	for _, b := range allocBuckets() {
		rep.set("alloc_mb."+b, float64(byPkg[b])/1e6/points, "MB/point")
	}
	return nil
}

// probeCoreNew times machine construction alone at each point's
// configuration: core.new_ms is the median, core.new_alloc_kb the mean
// bytes allocated.
func probeCoreNew(rep *report, pts []point) {
	var times []float64
	var allocKB float64
	var m0, m1 runtime.MemStats
	for _, p := range pts {
		n, err := p.spec.Normalize()
		if err != nil {
			rep.fail("%s: %v", p.key, err)
			continue
		}
		cfg := n.Config()
		runtime.ReadMemStats(&m0)
		t := time.Now()
		_, err = core.New(cfg)
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		if err != nil {
			rep.fail("core.New %s: %v", p.key, err)
			continue
		}
		times = append(times, ms(d))
		allocKB += float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3
	}
	rep.set("core.new_ms", median(times), "ms")
	rep.set("core.new_alloc_kb", allocKB/float64(len(times)), "kB")
}

// specReps repeats the spec probe so its median rests on enough samples.
const specReps = 20

// probeSpec times the sweep vocabulary's admission work per point:
// Normalize, Validate and Digest, as the server does for every job.
func probeSpec(rep *report, pts []point) {
	var times []float64
	for i := 0; i < specReps; i++ {
		for _, p := range pts {
			t := time.Now()
			n, err := p.spec.Normalize()
			if err == nil {
				err = n.Validate()
			}
			if err == nil {
				_, err = n.Digest()
			}
			times = append(times, us(time.Since(t)))
			if err != nil {
				rep.fail("spec %s: %v", p.key, err)
				return
			}
		}
	}
	rep.set("harness.spec_us", median(times), "us")
}

// probeEngine reruns the app points through apps.RunExec for the engine
// queue counters, summed over one pass. Points that end in an error
// (the known lossy deadlocks) report no counters.
func probeEngine(rep *report, pts []point) {
	var s sim.SchedStats
	var ran, failed int
	for _, p := range pts {
		prof, ok := p.app()
		if !ok {
			continue
		}
		n, err := p.spec.Normalize()
		if err != nil {
			rep.fail("%s: %v", p.key, err)
			continue
		}
		if r, ok := runApp(n.Config(), prof); ok {
			s.Add(r.Sched)
			ran++
		} else {
			failed++
		}
	}
	rep.set("sim.wheel_events", float64(s.WheelEvents), "count")
	rep.set("sim.heap_events", float64(s.HeapEvents), "count")
	ratio := 0.0
	if s.StepPoolHits+s.StepPoolMisses > 0 {
		ratio = float64(s.StepPoolHits) / float64(s.StepPoolHits+s.StepPoolMisses)
	}
	rep.set("sim.step_pool_hit_ratio", ratio, "ratio")
	if ran+failed > 0 {
		rep.note("engine probe: %d app points ran, %d ended in an error", ran, failed)
	}
}

func runApp(cfg config.Config, prof apps.Profile) (r apps.Result, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return apps.RunExec(cfg, prof, core.ExecTask), true
}

// report sets the coherence and wireless counters.
func (c counters) report(rep *report) {
	rep.set("mem.transactions", float64(c.memTransactions), "count")
	rep.set("mem.invalidations", float64(c.memInvalidations), "count")
	rep.set("mem.l1_hit_ratio", ratioOf(c.memL1Hits, c.memL1Hits+c.memL1Misses), "ratio")
	rep.set("wireless.messages", float64(c.netMessages), "count")
	rep.set("wireless.collision_ratio", ratioOf(c.netCollisions, c.netMessages), "ratio")
	rep.set("wireless.retx", float64(c.retx), "count")
	rep.set("channel.drops", float64(c.drops), "count")
}

func ratioOf(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
