package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wisync/internal/harness"
	"wisync/internal/journal"
	"wisync/internal/sweepcache"
	"wisync/internal/workerpool"
)

// traced is the serve traced run: the closed loop untraced for half the
// run's seconds, then the same number of jobs with the same shapes (fresh
// seeds again) traced at the client, then the layer probes. The server
// processes expose no profile, so cpu.* and alloc_mb.* profile the
// in-process recomputation of the traced half's cold points: the code
// the worker subprocesses run for them.
func (s *serveRun) traced() error {
	rep := s.rep
	untraced, _, wallA := s.loop(s.o.seconds/2, -1, 0)
	st0, err := s.stats()
	if err != nil {
		return err
	}
	traced, _, wallB := s.loop(0, int64(len(untraced)), 1)
	st1, err := s.stats()
	if err != nil {
		return err
	}
	if err := s.stopServer(); err != nil {
		return err
	}
	rep.set("trace.overhead_pct", 100*(wallB.Seconds()-wallA.Seconds())/wallA.Seconds(), "%")
	_, warm, cold, first, _ := latencies(traced)
	rep.set("jobs_per_s", float64(len(traced))/wallB.Seconds(), "jobs/s")
	rep.set("warm_job_ms_p50", percentile(warm, 0.5), "ms")
	rep.set("warm_job_ms_p90", percentile(warm, 0.9), "ms")
	rep.set("cold_job_ms_p50", percentile(cold, 0.5), "ms")
	rep.set("cold_job_ms_p90", percentile(cold, 0.9), "ms")
	rep.set("server.first_row_ms", median(first), "ms")
	rep.note("serve traced: %d jobs per half (%d warm, %d cold); untraced %.3f s, traced %.3f s",
		len(traced), len(warm), len(cold), wallA.Seconds(), wallB.Seconds())

	c0, c1 := st0.Cache, st1.Cache
	hits := (c1.Hits - c0.Hits) + (c1.InflightWaits - c0.InflightWaits) + (c1.DiskHits - c0.DiskHits)
	calls := (c1.Hits - c0.Hits) + (c1.InflightWaits - c0.InflightWaits) + (c1.Misses - c0.Misses)
	rep.set("sweepcache.hit_ratio", ratioOf(hits, calls), "ratio")
	rep.set("sweepcache.inflight_waits", float64(c1.InflightWaits-c0.InflightWaits), "count")
	rep.set("server.rejected_429", float64(st1.Rejected429-st0.Rejected429), "count")
	rep.set("workerpool.restarts", float64(st1.Pool.Restarts-st0.Pool.Restarts), "count")

	for _, r := range untraced {
		s.checkJob(r, true)
	}
	s.checkCold()
	var coldSpecs []harness.PointSpec
	var coldJobs []job
	for _, r := range traced {
		s.checkJob(r, true)
		if r.job.cold {
			coldSpecs = append(coldSpecs, r.specs...)
			coldJobs = append(coldJobs, r.job)
		}
	}
	prof, err := startProfiles(s.o.tmp)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n := float64(len(s.cold))
	times := s.checkCold()
	runtime.ReadMemStats(&m1)
	if err := prof.stop(rep, n); err != nil {
		return err
	}
	rep.set("harness.run_ms", median(times), "ms")
	rep.set("alloc_mb_per_point", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/n, "MB/point")
	rep.set("runtime.gc_cycles", float64(m1.NumGC-m0.NumGC)/n, "1/point")

	var pts []point
	var c counters
	for _, spec := range warmSpecs() {
		pts = append(pts, point{key: spec.ID(), spec: spec})
		if err := c.add(s.golden[spec.ID()].row); err != nil {
			return err
		}
	}
	probeCoreNew(rep, pts)
	probeSpec(rep, pts)
	probeEngine(rep, pts)
	c.report(rep)
	if err := probeCache(rep, s.o.tmp, pts, s.golden); err != nil {
		return err
	}
	if err := probeJournal(rep, s.o.tmp, coldJobs); err != nil {
		return err
	}
	return probePool(rep, s.o.bin, coldSpecs)
}

// cacheReps repeats the memory and disk hit probes over the keys.
const cacheReps = 20

// probeCache times the result cache on the warm points' keys and golden
// rows: sweepcache.hit_us is a memory hit, sweepcache.disk_hit_us a
// memory miss served from the disk tier, sweepcache.store_ms a miss whose
// row is stored durably (the cold path's cache cost, fsync included).
func probeCache(rep *report, tmp string, pts []point, golden map[string]expectation) error {
	keys := make([]sweepcache.Key, len(pts))
	rows := make([]string, len(pts))
	for i, p := range pts {
		d, err := p.spec.Digest()
		if err != nil {
			return err
		}
		keys[i], rows[i] = sweepcache.Key{Digest: d, Seed: p.spec.Seed}, golden[p.key].row
	}
	mem := sweepcache.New(len(keys))
	var memHits []float64
	for rep := 0; rep <= cacheReps; rep++ {
		for i, k := range keys {
			t := time.Now()
			_, _, err := mem.Do(k, func() (string, error) { return rows[i], nil })
			if rep > 0 { // the first round fills the cache
				memHits = append(memHits, us(time.Since(t)))
			}
			if err != nil {
				return err
			}
		}
	}

	dir, err := os.MkdirTemp(tmp, "cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Capacity 1 keeps every key but the last one out of memory, so each
	// lookup in key order misses memory and reads the disk tier.
	disk, err := sweepcache.NewDisk(1, dir)
	if err != nil {
		return err
	}
	var stores, diskHits []float64
	for i, k := range keys {
		t := time.Now()
		if _, _, err := disk.Do(k, func() (string, error) { return rows[i], nil }); err != nil {
			return err
		}
		stores = append(stores, ms(time.Since(t)))
	}
	for rep := 0; rep < cacheReps; rep++ {
		for i, k := range keys {
			t := time.Now()
			row, cached, err := disk.Do(k, func() (string, error) {
				return "", fmt.Errorf("disk tier lost %s", pts[i].key)
			})
			diskHits = append(diskHits, us(time.Since(t)))
			if err != nil || !cached || row != rows[i] {
				return fmt.Errorf("disk hit probe on %s: cached=%v err=%v", pts[i].key, cached, err)
			}
		}
	}
	rep.set("sweepcache.hit_us", median(memHits), "us")
	rep.set("sweepcache.disk_hit_us", median(diskHits), "us")
	rep.set("sweepcache.store_ms", median(stores), "ms")
	return nil
}

// journalJobs bounds the journal probe; every append and completion is
// fsync'd.
const journalJobs = 64

// probeJournal times the write-ahead journal on the traced cold jobs'
// payloads: journal.append_ms per accepted job, journal.complete_ms per
// completion record.
func probeJournal(rep *report, tmp string, jobs []job) error {
	if len(jobs) > journalJobs {
		jobs = jobs[:journalJobs]
	}
	dir, err := os.MkdirTemp(tmp, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, _, err := journal.Open(filepath.Join(dir, "wal.log"))
	if err != nil {
		return err
	}
	var appends, completes []float64
	for _, jb := range jobs {
		payload, err := json.Marshal(jb)
		if err != nil {
			return err
		}
		t := time.Now()
		id, err := j.Append(payload)
		appends = append(appends, ms(time.Since(t)))
		if err != nil {
			return err
		}
		t = time.Now()
		err = j.Complete(id)
		completes = append(completes, ms(time.Since(t)))
		if err != nil {
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	rep.set("journal.append_ms", median(appends), "ms")
	rep.set("journal.complete_ms", median(completes), "ms")
	return nil
}

// poolPoints bounds the worker-pool probe.
const poolPoints = 16

// probePool runs cold points through a one-worker pool of the built
// wisync-worker and in-process: workerpool.run_ms is Pool.Run,
// workerpool.wire_ms the median of Pool.Run minus RunCtx for the same
// spec (process hop and wire encoding).
func probePool(rep *report, bin string, specs []harness.PointSpec) error {
	if len(specs) > poolPoints {
		specs = specs[:poolPoints]
	}
	if len(specs) == 0 {
		return fmt.Errorf("no cold points to probe the worker pool with")
	}
	pool := workerpool.New(workerpool.Options{
		Command: []string{filepath.Join(bin, "wisync-worker")}, Workers: 1, Stderr: io.Discard,
	})
	ctx := context.Background()
	err := func() error {
		defer pool.Close()
		if _, err := pool.Run(ctx, specs[0]); err != nil { // spawns the worker
			return err
		}
		var runs, wires []float64
		for _, spec := range specs {
			t := time.Now()
			row, err := pool.Run(ctx, spec)
			run := time.Since(t)
			if err != nil {
				return err
			}
			t = time.Now()
			want, err := spec.RunCtx(ctx)
			local := time.Since(t)
			if err != nil {
				return err
			}
			if row != want {
				rep.fail("worker row for %s differs from the in-process row", spec.ID())
			}
			runs = append(runs, ms(run))
			wires = append(wires, ms(run-local))
		}
		rep.set("workerpool.run_ms", median(runs), "ms")
		rep.set("workerpool.wire_ms", median(wires), "ms")
		return nil
	}()
	self := os.Getpid()
	if werr := waitGone(func(st procStat) bool { return st.ppid == self }, 10*time.Second); err == nil {
		err = werr
	}
	return err
}
