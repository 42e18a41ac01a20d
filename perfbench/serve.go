package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wisync/internal/config"
	"wisync/internal/harness"
	"wisync/internal/sweepcache"
	"wisync/internal/workerpool"
)

// serveClients is the closed loop's client count: each sends its next job
// only after the previous stream ended. One client keeps a single job in
// flight, so a warm job never waits behind another client's compute.
const serveClients = 1

// serveWorkers is the server's worker subprocess count.
const serveWorkers = 2

// coldEvery makes every fourth job cold; the other three repeat a job
// warmed during set-up.
const coldEvery = 4

// shape is a warm job's point set: one kernel on one kind at 16 and 64
// cores with a golden seed. The twelve shapes cover the whole kernel
// golden matrix, so every warm row is checked against golden.tsv. Warm
// jobs have two points so that the single-point cold jobs make a seventh
// of the rows: p50 then falls among warm rows and p90 among cold ones.
type shape struct {
	workload string
	kind     config.Kind
	seed     uint64
}

var serveShapes = func() []shape {
	var out []shape
	for _, g := range harness.GoldenPoints() {
		if g.Cores == 16 {
			out = append(out, shape{g.Kernel, g.Kind, g.Seed})
		}
	}
	return out
}()

// job is a sweep request as the server's JSON API takes it.
type job struct {
	Workload string        `json:"workload"`
	Kinds    []config.Kind `json:"kinds"`
	Cores    []int         `json:"cores"`
	Seeds    []uint64      `json:"seeds"`
	cold     bool
}

// specs expands the job the way the server does: kinds x cores x seeds.
func (j job) specs() []harness.PointSpec {
	var out []harness.PointSpec
	for _, k := range j.Kinds {
		for _, c := range j.Cores {
			for _, s := range j.Seeds {
				out = append(out, harness.PointSpec{Workload: j.Workload, Kind: k, Cores: c, Seed: s})
			}
		}
	}
	return out
}

func warmJob(sh shape) job {
	return job{Workload: sh.workload, Kinds: []config.Kind{sh.kind}, Cores: []int{16, 64}, Seeds: []uint64{sh.seed}}
}

// coldJob asks for one golden kernel point under a fresh seed.
func coldJob(spec harness.PointSpec, seed uint64) job {
	return job{Workload: spec.Workload, Kinds: []config.Kind{spec.Kind}, Cores: []int{spec.Cores},
		Seeds: []uint64{seed}, cold: true}
}

// warmSpecs are the points of all warm jobs: the kernel golden matrix.
func warmSpecs() []harness.PointSpec {
	var out []harness.PointSpec
	for _, sh := range serveShapes {
		out = append(out, warmJob(sh).specs()...)
	}
	return out
}

// jobPlan turns a job index into a job. The seed argument fixes the warm
// shape order, the cold point order and the fresh seeds; epoch separates
// the fresh seeds of the traced half of a run from the untraced half.
type jobPlan struct {
	warm      []int
	cold      []harness.PointSpec
	freshBase uint64
}

func newJobPlan(seed int64) jobPlan {
	rng := rand.New(rand.NewSource(seed))
	p := jobPlan{
		warm:      rng.Perm(len(serveShapes)),
		freshBase: 1_000_000_000_000 + uint64(seed%1_000_000)*1_000_000,
	}
	specs := warmSpecs()
	for _, i := range rng.Perm(len(specs)) {
		p.cold = append(p.cold, specs[i])
	}
	return p
}

func (p jobPlan) job(i int64, epoch uint64) job {
	if i%coldEvery == coldEvery-1 {
		c := uint64(i / coldEvery)
		return coldJob(p.cold[c%uint64(len(p.cold))], p.freshBase+epoch*100_000+c)
	}
	k := i - i/coldEvery
	return warmJob(serveShapes[p.warm[k%int64(len(p.warm))]])
}

// rowMsg is one NDJSON line of a /sweep stream.
type rowMsg struct {
	ID     string `json:"id"`
	Row    string `json:"row"`
	Error  string `json:"error"`
	Done   bool   `json:"done"`
	Points int    `json:"points"`
	Failed bool   `json:"failed"`
	Reason string `json:"reason"`
}

// jobResult is one job as the client saw it.
type jobResult struct {
	job    job
	specs  []harness.PointSpec
	rows   []rowMsg
	start  time.Time
	rowLat []time.Duration // submit to each row's arrival
	total  time.Duration   // submit to the trailer
	done   bool            // a {"done"} trailer closed the stream
	err    error
}

// maxRetries bounds how often a job refused with 429 is resent.
const maxRetries = 3

type client struct {
	http *http.Client
	url  string
}

func (c *client) do(j job) jobResult {
	res := jobResult{job: j, specs: j.specs()}
	body, err := json.Marshal(j)
	if err != nil {
		res.err = err
		return res
	}
	start := time.Now()
	res.start = start
	var resp *http.Response
	for attempt := 0; ; attempt++ {
		resp, err = c.http.Post(c.url+"/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			res.err = err
			return res
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if attempt == maxRetries {
			res.err = errors.New("retries exhausted: 429")
			return res
		}
		time.Sleep(time.Duration(attempt+1) * 10 * time.Millisecond)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		res.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
		return res
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			var m rowMsg
			if jerr := json.Unmarshal(line, &m); jerr != nil {
				res.err = fmt.Errorf("bad stream line %q: %w", line, jerr)
				return res
			}
			switch {
			case m.Done:
				res.total, res.done = time.Since(start), m.Points == len(res.specs)
				return res
			case m.Failed:
				res.err = fmt.Errorf("stream failed: %s", m.Reason)
				return res
			}
			res.rows = append(res.rows, m)
			res.rowLat = append(res.rowLat, time.Since(start))
		}
		if err != nil {
			res.err = fmt.Errorf("stream truncated: %w", err)
			return res
		}
	}
}

// serveRun is the state of one serve run.
type serveRun struct {
	o      options
	rep    *report
	golden map[string]expectation
	plan   jobPlan
	srv    atomic.Pointer[server]
	cl     *client
	unpin  func() error
	// cold collects the rows of cold jobs, checked in-process after the
	// timed window.
	cold []coldRow
}

type coldRow struct {
	spec harness.PointSpec
	msg  rowMsg
}

// loop runs the closed loop: serveClients clients, each sending its next
// job when the previous stream ends, until d has elapsed (limit < 0) or
// limit jobs were sent.
func (s *serveRun) loop(d time.Duration, limit int64, epoch uint64) ([]jobResult, time.Time, time.Duration) {
	var next atomic.Int64
	per := make([][]jobResult, serveClients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if limit < 0 && !time.Now().Before(deadline) {
					return
				}
				i := next.Add(1) - 1
				if limit >= 0 && i >= limit {
					return
				}
				per[c] = append(per[c], s.cl.do(s.plan.job(i, epoch)))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []jobResult
	for _, p := range per {
		all = append(all, p...)
	}
	return all, start, wall
}

// checkJob tallies a job's points: a warm row must equal its golden.tsv
// line; a cold row is kept for the in-process comparison. A point whose
// row is missing — refused, truncated or failed stream — counts failed.
func (s *serveRun) checkJob(r jobResult, tally bool) {
	for i, spec := range r.specs {
		id := spec.ID()
		var v verdict
		switch {
		case i >= len(r.rows) || !r.done || r.err != nil:
			v = verdict{correct: true, failed: true}
		case r.rows[i].ID != id:
			v = verdict{correct: false, failed: true}
		case r.job.cold:
			if tally {
				s.cold = append(s.cold, coldRow{spec: spec, msg: r.rows[i]})
			}
			continue
		default:
			var err error
			if r.rows[i].Error != "" {
				err = errors.New(r.rows[i].Error)
			}
			v = check(id, r.rows[i].Row, err, s.golden[id])
		}
		if tally {
			s.rep.tally(id, v)
		} else if !v.correct || v.failed {
			s.rep.fail("%s failed during set-up", id)
		}
	}
	if r.err != nil {
		s.rep.note("job %s seed %v: %v", r.job.Workload, r.job.Seeds, r.err)
	}
}

// checkCold recomputes every cold point in-process, outside the timed
// window, and compares it with the row the service streamed. It returns
// the per-point in-process run times.
func (s *serveRun) checkCold() []float64 {
	times := make([]float64, len(s.cold))
	verdicts := make([]verdict, len(s.cold))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serveWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.cold) {
					return
				}
				c := s.cold[i]
				t := time.Now()
				row, err := c.spec.Run()
				times[i] = ms(time.Since(t))
				want := expectation{row: row}
				if err != nil {
					want = expectation{err: err.Error()}
				}
				var gotErr error
				if c.msg.Error != "" {
					gotErr = errors.New(c.msg.Error)
				}
				verdicts[i] = check(c.spec.ID(), c.msg.Row, gotErr, want)
			}
		}()
	}
	wg.Wait()
	for i, v := range verdicts {
		s.rep.tally(s.cold[i].spec.ID(), v)
	}
	s.cold = nil
	return times
}

// rowsPerSecond is the median over the loop's whole one-second windows
// of rows delivered per second. The loop lasts at least one second.
func rowsPerSecond(rs []jobResult, loopStart time.Time, wall time.Duration) float64 {
	buckets := make([]float64, int(wall/time.Second))
	for _, r := range rs {
		for _, d := range r.rowLat {
			if b := int(r.start.Add(d).Sub(loopStart) / time.Second); b < len(buckets) {
				buckets[b]++
			}
		}
	}
	return median(buckets)
}

// latencies splits job results into row, warm-job, cold-job and cold
// first-row latencies in ms.
func latencies(rs []jobResult) (rows, warm, cold, first []float64, points int) {
	for _, r := range rs {
		for _, d := range r.rowLat {
			rows = append(rows, ms(d))
		}
		points += len(r.rowLat)
		if !r.done || len(r.rowLat) == 0 {
			continue
		}
		if r.job.cold {
			cold = append(cold, ms(r.total))
			first = append(first, ms(r.rowLat[0]))
		} else {
			warm = append(warm, ms(r.total))
		}
	}
	return
}

// runServe runs the serve workload, pinned to one CPU: set-ups of a fresh
// server with its cache warmed, then the closed loop against the last one.
func runServe(o options, start time.Time) (*report, error) {
	golden, err := readExpected(filepath.Join(o.root, "internal", "harness", "testdata", "golden.tsv"), false)
	if err != nil {
		return nil, err
	}
	s := &serveRun{o: o, rep: newReport(), golden: golden, plan: newJobPlan(o.seed)}
	stopSignals := make(chan os.Signal, 1)
	signal.Notify(stopSignals, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(stopSignals)
		close(stopSignals)
	}()
	go func() {
		if _, ok := <-stopSignals; ok {
			if srv := s.srv.Load(); srv != nil {
				srv.stop()
			}
			os.Exit(1)
		}
	}()

	cpu, unpin, err := pinToOneCPU()
	if err != nil {
		return nil, err
	}
	s.unpin = unpin
	s.rep.note("serve: client, server and workers pinned to cpu %d", cpu)

	var setupDur []float64
	for i := 0; i < setups; i++ {
		t := time.Now()
		if i == 0 {
			t = start
		}
		if srv := s.srv.Load(); srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		srv, err := startServer(o, filepath.Join(o.tmp, fmt.Sprintf("serve-%d-%d", os.Getpid(), i)))
		if err != nil {
			return nil, err
		}
		defer srv.stop()
		s.srv.Store(srv)
		if s.cl != nil {
			s.cl.http.CloseIdleConnections()
		}
		s.cl = &client{url: "http://" + srv.addr, http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients, DisableCompression: true,
		}}}
		for _, sh := range serveShapes {
			s.checkJob(s.cl.do(warmJob(sh)), false)
		}
		setupDur = append(setupDur, time.Since(t).Seconds())
	}
	rep := s.rep
	if o.trace {
		rep.note("setup_s %.6g s", median(setupDur))
		return rep, s.traced()
	}
	rep.set("setup_s", median(setupDur), "s")

	results, loopStart, wall := s.loop(o.seconds, -1, 0)
	rss, err := peakRSSMB(s.srv.Load().pid())
	if err != nil {
		return nil, err
	}
	if err := s.stopServer(); err != nil {
		return nil, err
	}
	for _, r := range results {
		s.checkJob(r, true)
	}
	s.checkCold()
	rows, warm, cold, first, points := latencies(results)
	if !supported(len(rows), 0.9) {
		return nil, fmt.Errorf("only %d rows in %v; p90 needs %d", len(rows), o.seconds, samplesFor(0.9))
	}
	rep.set("points_per_s", rowsPerSecond(results, loopStart, wall), "points/s")
	rep.set("point_ms_p50", percentile(rows, 0.5), "ms")
	rep.set("point_ms_p90", percentile(rows, 0.9), "ms")
	rep.set("peak_rss_mb", rss, "MB")
	rep.note("serve: %d jobs (%d warm, %d cold), %d rows in %.3f s; jobs_per_s %.6g jobs/s",
		len(results), len(warm), len(cold), points, wall.Seconds(), float64(len(results))/wall.Seconds())
	rep.note("warm_job_ms p50 %.6g p90 %.6g ms (%d jobs); cold_job_ms p50 %.6g p90 %.6g ms (%d jobs); cold first row p50 %.6g ms",
		percentile(warm, 0.5), percentile(warm, 0.9), len(warm),
		percentile(cold, 0.5), percentile(cold, 0.9), len(cold), median(first))
	return rep, nil
}

// stopServer stops the server after the closed loop and unpins, so the
// in-process checks that follow use every CPU.
func (s *serveRun) stopServer() error {
	if err := s.srv.Load().stop(); err != nil {
		return err
	}
	return s.unpin()
}

// serverStats is the part of /stats the benchmark reads.
type serverStats struct {
	Rejected429 uint64            `json:"rejected_429"`
	Cache       sweepcache.Stats  `json:"cache"`
	Pool        *workerpool.Stats `json:"pool"`
}

func (s *serveRun) stats() (serverStats, error) {
	var st serverStats
	resp, err := s.cl.http.Get(s.cl.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("/stats: %w", err)
	}
	if st.Pool == nil {
		return st, errors.New("/stats has no worker pool: is the server in proc isolation?")
	}
	return st, nil
}

// server is a running wisync-server in its own process group, so its
// worker subprocesses can be stopped with it.
type server struct {
	cmd    *exec.Cmd
	addr   string
	dir    string // cache, journal and log; removed by stop
	exited chan struct{}
	once   sync.Once
	err    error
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// startServer launches wisync-server with fresh state under dir and waits
// until /readyz answers 200. Only the traced run gives it a disk cache and
// a write-ahead journal: their fsyncs took more than half of a warm job,
// and their latency followed the load other tenants put on the shared
// disk. The traced run's probes time both layers in-process.
func startServer(o options, dir string) (*server, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args := []string{"-addr", addr, "-isolation", "proc", "-workers", strconv.Itoa(serveWorkers),
		"-worker-bin", filepath.Join(o.bin, "wisync-worker")}
	if o.trace {
		args = append(args, "-cache-dir", filepath.Join(dir, "cache"), "-wal", filepath.Join(dir, "wal.log"))
	}
	cmd := exec.Command(filepath.Join(o.bin, "wisync-server"), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting wisync-server: %w", err)
	}
	s := &server{cmd: cmd, addr: addr, dir: dir, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			log, _ := os.ReadFile(logf.Name())
			s.stop()
			return nil, fmt.Errorf("wisync-server exited during start-up: %s", log)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("wisync-server not ready after 30 s")
		}
	}
}

// stop terminates the server, kills what is left of its process group
// (its workers) and waits until every member has ended.
func (s *server) stop() error {
	s.once.Do(func() {
		pgid := s.cmd.Process.Pid
		_ = syscall.Kill(pgid, syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(15 * time.Second):
			_ = syscall.Kill(-pgid, syscall.SIGKILL)
			<-s.exited
		}
		_ = syscall.Kill(-pgid, syscall.SIGKILL)
		s.err = waitGone(func(st procStat) bool { return st.pgrp == pgid }, 10*time.Second)
		if err := os.RemoveAll(s.dir); s.err == nil {
			s.err = err
		}
	})
	return s.err
}

// procStat is the part of /proc/<pid>/stat the benchmark reads.
type procStat struct {
	pid, ppid, pgrp int
	state           byte
}

// waitGone polls /proc until no live (non-zombie) process matches.
func waitGone(match func(procStat) bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		alive := 0
		entries, err := os.ReadDir("/proc")
		if err != nil {
			return err
		}
		for _, e := range entries {
			pid, err := strconv.Atoi(e.Name())
			if err != nil {
				continue
			}
			b, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
			if err != nil {
				continue // ended between the listing and the read
			}
			i := bytes.LastIndexByte(b, ')')
			if i < 0 {
				continue
			}
			f := strings.Fields(string(b[i+1:]))
			if len(f) < 3 {
				continue
			}
			st := procStat{pid: pid, state: f[0][0]}
			st.ppid, _ = strconv.Atoi(f[1])
			st.pgrp, _ = strconv.Atoi(f[2])
			if st.state != 'Z' && match(st) {
				alive++
			}
		}
		if alive == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d processes still running after %v", alive, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
