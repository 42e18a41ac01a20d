package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wisync/internal/harness"
	"wisync/internal/journal"
)

// The proc-isolation tests re-exec this test binary as the worker
// subprocess, the same pattern internal/workerpool uses: TestMain diverts
// to a worker loop when the helper env var is set.
//
//	serve     the real harness.ServeWire loop (rows byte-identical)
//	selective ServeWire, except seed 666 crashes the process mid-point
const serverWorkerHelperEnv = "WISYNC_SERVER_WORKER_HELPER"

func TestMain(m *testing.M) {
	switch os.Getenv(serverWorkerHelperEnv) {
	case "":
		os.Exit(m.Run())
	case "serve":
		if err := harness.ServeWire(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	case "selective":
		dec := json.NewDecoder(os.Stdin)
		for {
			var req harness.WireRequest
			if err := dec.Decode(&req); err != nil {
				os.Exit(0)
			}
			if req.Spec.Seed == 666 {
				os.Exit(2)
			}
			resp := harness.WireResponse{Seq: req.Seq}
			if row, err := req.Spec.Run(); err != nil {
				resp.Err, resp.Error = true, err.Error()
			} else {
				resp.Row = row
			}
			if err := harness.EncodeWire(os.Stdout, resp); err != nil {
				os.Exit(0)
			}
		}
	}
}

// procOptions returns serverOptions running points in subprocesses of this
// test binary, diverted into the given helper mode.
func procOptions(t *testing.T, mode string, workers int) serverOptions {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	return serverOptions{
		Workers:       workers,
		Isolation:     "proc",
		WorkerCommand: []string{exe},
		WorkerEnv:     []string{serverWorkerHelperEnv + "=" + mode},
		PointTimeout:  time.Minute,
	}
}

// waitReady polls /readyz until it answers 200 (or the deadline expires):
// the contract an orchestrator relies on after a restart.
func waitReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("/readyz never turned 200")
}

func getStats(t *testing.T, url string) statsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /stats: %v", err)
	}
	return st
}

// TestServerProcIsolationGolden pins the isolation invariant over HTTP:
// with every point running in a worker subprocess, the golden matrix
// streams back byte-identical to testdata/golden.tsv, and /stats carries
// the pool counters.
func TestServerProcIsolationGolden(t *testing.T) {
	golden := loadGolden(t)
	_, ts := newTestServer(t, procOptions(t, "serve", 2))
	body := `{"workload":"tightloop","kinds":["Baseline","Baseline+","WiSyncNoT","WiSync"],"cores":[16,64],"seeds":[1]}`
	rows, done, status := postJob(t, ts.URL, body)
	if status != http.StatusOK || done.Errors != 0 {
		t.Fatalf("proc job: status=%d done=%+v", status, done)
	}
	for _, m := range rows {
		if m.Row != golden[m.ID] {
			t.Fatalf("subprocess row drifted from golden:\ngot:  %s\nwant: %s", m.Row, golden[m.ID])
		}
	}
	st := getStats(t, ts.URL)
	if st.Isolation != "proc" || st.Pool == nil {
		t.Fatalf("/stats missing pool in proc mode: %+v", st)
	}
	if st.Pool.Points != uint64(len(rows)) || st.Pool.Crashes != 0 {
		t.Fatalf("pool stats: %+v", st.Pool)
	}
}

// TestServerProcCrashedRow pins crash containment end to end: a point that
// kills its worker subprocess becomes one structured crashed row, the rest
// of the job (and the job's done trailer) is unharmed, and the restart is
// visible in /stats.
func TestServerProcCrashedRow(t *testing.T) {
	_, ts := newTestServer(t, procOptions(t, "selective", 1))
	body := `{"workload":"tightloop","kinds":["WiSync"],"cores":[16],"seeds":[1,666,42]}`
	rows, done, status := postJob(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(rows) != 3 || done.Errors != 1 {
		t.Fatalf("rows=%d done=%+v", len(rows), done)
	}
	var crashed int
	for _, m := range rows {
		if m.Crashed {
			crashed++
			if !strings.Contains(m.Error, "worker") {
				t.Fatalf("crashed row lacks a structured error: %+v", m)
			}
		} else if m.Error != "" {
			t.Fatalf("non-crash error row: %+v", m)
		} else if m.Row == "" {
			t.Fatalf("healthy row empty: %+v", m)
		}
	}
	if crashed != 1 {
		t.Fatalf("crashed rows = %d, want 1", crashed)
	}
	st := getStats(t, ts.URL)
	if st.Pool == nil || st.Pool.Crashes != 1 || st.Pool.Restarts < 1 {
		t.Fatalf("pool stats after crash: %+v", st.Pool)
	}
	// The server survives: the crashing seed is recomputable-free but the
	// healthy part of the matrix still serves (now from cache).
	rows2, done2, _ := postJob(t, ts.URL, `{"workload":"tightloop","kinds":["WiSync"],"cores":[16],"seeds":[1,42]}`)
	if done2.Errors != 0 || done2.Hits != 2 {
		t.Fatalf("healthy resubmit: done=%+v rows=%+v", done2, rows2)
	}
}

// TestServerJournalRecovery pins the WAL contract: a job journaled by a
// previous process but never completed is replayed at startup, /readyz
// holds 503 until the replay lands, and a client resubmitting the job is
// then served entirely from the (durable) cache, byte-identical to golden.
func TestServerJournalRecovery(t *testing.T) {
	golden := loadGolden(t)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "jobs.wal")
	cacheDir := filepath.Join(dir, "cache")
	body := `{"workload":"tightloop","kinds":["Baseline","WiSync"],"cores":[16,64],"seeds":[1]}`

	// A "previous process" accepted the job and died before completing it:
	// journal it by hand, with no completion record.
	j, _, err := journal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(json.RawMessage(body)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	s, ts := newTestServer(t, serverOptions{Workers: 2, WALPath: walPath, CacheDir: cacheDir})
	waitReady(t, ts.URL)
	st := getStats(t, ts.URL)
	if st.ReplayedJobs != 1 || st.ReplayedPoints != 4 || st.JournalPending != 0 {
		t.Fatalf("replay stats: %+v", st)
	}
	if st.Cache.DiskWrites != 4 {
		t.Fatalf("replayed rows not durably stored: %+v", st.Cache)
	}

	// The client's resubmission: all four points are hits, byte-identical.
	rows, done, status := postJob(t, ts.URL, body)
	if status != http.StatusOK || done.Errors != 0 || done.Hits != 4 {
		t.Fatalf("resubmit after replay: status=%d done=%+v", status, done)
	}
	for _, m := range rows {
		if !m.Cached || m.Row != golden[m.ID] {
			t.Fatalf("replayed row wrong: %+v (want %s)", m, golden[m.ID])
		}
	}
	s.Close()

	// A second restart over the same state: nothing to replay (the job
	// completed and was compacted away), and the disk tier preloads the
	// rows so the job is warm-served without a single recompute.
	s2, ts2 := newTestServer(t, serverOptions{Workers: 2, WALPath: walPath, CacheDir: cacheDir})
	defer func() { ts2.Close(); s2.Close() }()
	waitReady(t, ts2.URL)
	st2 := getStats(t, ts2.URL)
	if st2.ReplayedJobs != 0 || st2.Cache.Preloaded != 4 {
		t.Fatalf("second restart: %+v", st2)
	}
	rows2, done2, _ := postJob(t, ts2.URL, body)
	if done2.Hits != 4 || done2.Errors != 0 {
		t.Fatalf("warm job after restart: done=%+v", done2)
	}
	for _, m := range rows2 {
		if m.Row != golden[m.ID] {
			t.Fatalf("warm row drifted:\ngot:  %s\nwant: %s", m.Row, golden[m.ID])
		}
	}
	if st := getStats(t, ts2.URL); st.Cache.Misses != 0 {
		t.Fatalf("warm restart recomputed: %+v", st.Cache)
	}
}

// TestServerReplayAcceptsExecField pins journal compatibility across the
// removal of the job's "exec" and "shards" fields: an entry journaled by an
// earlier build that still carries either field replays to golden rows, and
// the replayed points land under the same cache keys a fresh job uses.
func TestServerReplayAcceptsExecField(t *testing.T) {
	golden := loadGolden(t)
	for _, field := range []string{`"exec":"thread"`, `"shards":2`} {
		walPath := filepath.Join(t.TempDir(), "jobs.wal")
		j, _, err := journal.Open(walPath)
		if err != nil {
			t.Fatal(err)
		}
		old := `{"workload":"tightloop","kinds":["Baseline","WiSync"],"cores":[16],"seeds":[1],` + field + `}`
		if _, err := j.Append(json.RawMessage(old)); err != nil {
			t.Fatal(err)
		}
		j.Close()

		_, ts := newTestServer(t, serverOptions{Workers: 1, WALPath: walPath})
		waitReady(t, ts.URL)
		if st := getStats(t, ts.URL); st.ReplayedJobs != 1 || st.ReplayedPoints != 2 || st.ReplayErrors != 0 {
			t.Fatalf("replay of an entry carrying %s: %+v", field, st)
		}
		rows, done, status := postJob(t, ts.URL, `{"workload":"tightloop","kinds":["Baseline","WiSync"],"cores":[16],"seeds":[1]}`)
		if status != http.StatusOK || done.Errors != 0 || done.Hits != 2 {
			t.Fatalf("%s: resubmit after replay: status=%d done=%+v", field, status, done)
		}
		for _, m := range rows {
			if m.Row != golden[m.ID] {
				t.Fatalf("%s: replayed row drifted:\ngot:  %s\nwant: %s", field, m.Row, golden[m.ID])
			}
		}
	}
}

// TestServerReplayDropsUndecodable pins the poisoned-journal path: a WAL
// record this build cannot decode is dropped (counted, completed) rather
// than wedging readiness forever.
func TestServerReplayDropsUndecodable(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "jobs.wal")
	j, _, err := journal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Append(json.RawMessage(`{"workload":"mystery-not-a-workload"}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	_, ts := newTestServer(t, serverOptions{Workers: 1, WALPath: walPath})
	waitReady(t, ts.URL)
	st := getStats(t, ts.URL)
	if st.ReplayErrors != 1 || st.JournalPending != 0 {
		t.Fatalf("undecodable replay: %+v", st)
	}
}

// TestServerFailedTrailer pins the trailer guarantee: when an internal
// fault cuts a stream short with the client still connected, the stream
// ends with one {"failed": true} trailer instead of going silent — the
// signal wisync-load uses to tell a server fault from a truncated
// (server-death) stream.
func TestServerFailedTrailer(t *testing.T) {
	prev := streamFailHook
	streamFailHook = func(i int) error {
		if i == 1 {
			return fmt.Errorf("injected stream fault")
		}
		return nil
	}
	defer func() { streamFailHook = prev }()

	_, ts := newTestServer(t, serverOptions{Workers: 1})
	resp, err := http.Post(ts.URL+"/sweep", "application/json",
		strings.NewReader(`{"workload":"tightloop","kinds":["Baseline","WiSync"],"cores":[16],"seeds":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msgs []rowMsg
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var m rowMsg
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		msgs = append(msgs, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if len(msgs) != 2 {
		t.Fatalf("stream: %+v", msgs)
	}
	if msgs[0].Row == "" || msgs[0].Error != "" {
		t.Fatalf("first row: %+v", msgs[0])
	}
	last := msgs[len(msgs)-1]
	if !last.Failed || last.Done || !strings.Contains(last.Reason, "injected stream fault") {
		t.Fatalf("missing failed trailer: %+v", last)
	}
}
