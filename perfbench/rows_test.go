package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

const goldenRow = "tightloop/Baseline/16c/s1\tcycles=13632\titers=8\tdatautil=0\tcyc/iter=1704\t" +
	"mem={L1Hits:950 L1Misses:1093 Transactions:1093 Invalidations:445 Forwards:129 MemFetches:114 Evictions:0}\t" +
	"net={Messages:0 Collisions:0 Withdrawn:0 SkippedGrants:0 BusyCycles:0 LatencySum:0}"

func TestCheckExactRow(t *testing.T) {
	want := expectation{row: goldenRow}
	if v := check("tightloop/Baseline/16c/s1", goldenRow, nil, want); !v.correct || v.failed {
		t.Errorf("identical row: %+v", v)
	}
}

func TestCheckAlteredRowCountsAsFailed(t *testing.T) {
	altered := goldenRow[:len(goldenRow)-1] + "1}"
	v := check("tightloop/Baseline/16c/s1", altered, nil, expectation{row: goldenRow})
	if v.correct || !v.failed {
		t.Errorf("altered row must be incorrect and failed, got %+v", v)
	}
	if v := check("x", "", errors.New("boom"), expectation{row: goldenRow}); v.correct || !v.failed {
		t.Errorf("unexpected error row must be incorrect and failed, got %+v", v)
	}
}

func TestCheckKnownFailure(t *testing.T) {
	want := expectation{err: "sim: deadlock"}
	if v := check("p", "", errors.New("sim: deadlock"), want); !v.correct || !v.failed {
		t.Errorf("reproduced known failure: %+v", v)
	}
	if v := check("p", "", errors.New("sim: budget"), want); v.correct || !v.failed {
		t.Errorf("different error: %+v", v)
	}
	if v := check("p", "p\tcycles=7", nil, want); !v.correct || v.failed {
		t.Errorf("fixed known failure: %+v", v)
	}
	if v := check("p", "q\tcycles=7", nil, want); v.correct {
		t.Errorf("row for another point accepted: %+v", v)
	}
}

func TestReadExpected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "e.tsv")
	body := "a/lossy\ta\tcycles=1\nb/lossy\tERROR sim: deadlock\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readExpected(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if got["a/lossy"].row != "a\tcycles=1" || got["b/lossy"].err != "sim: deadlock" {
		t.Errorf("readExpected = %+v", got)
	}
	golden, err := readExpected(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if golden["a/lossy"].row != "a/lossy\ta\tcycles=1" {
		t.Errorf("unkeyed file must keep the whole line as the row: %+v", golden)
	}
}

func TestCountersAdd(t *testing.T) {
	var c counters
	lossy := "w/WiSync/256c/s1\tcycles=5\tmem={L1Hits:3 L1Misses:1 Transactions:1 Invalidations:0}\t" +
		"net={Messages:10 Collisions:2}\tenergy=1.5pJ\tretx=4\tdrops=1"
	for _, row := range []string{goldenRow, lossy, "app/Baseline/64c/s1\tcycles=9\tdatautil=0\tspills=0"} {
		if err := c.add(row); err != nil {
			t.Fatal(err)
		}
	}
	want := counters{memTransactions: 1094, memL1Hits: 953, memL1Misses: 1094, memInvalidations: 445,
		netMessages: 10, netCollisions: 2, retx: 4, drops: 1}
	if c != want {
		t.Errorf("counters = %+v, want %+v", c, want)
	}
	if err := c.add("x\tmem={L1Hits}"); err == nil {
		t.Error("malformed struct column accepted")
	}
}
