package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// errPrefix marks an expected row that records a point's error instead of
// a metrics row.
const errPrefix = "ERROR "

// expectation is the recorded outcome of one point: its metrics row, or,
// for a known failure, the exact error text.
type expectation struct {
	row string
	err string
}

// verdict is the outcome of checking one point against its expectation.
type verdict struct {
	// correct is false when the output differs from the expectation.
	correct bool
	// failed counts the point against the run's attempts: an error row
	// (expected or not) or a mismatch.
	failed bool
}

// check compares a point's output with its expectation. A known failure
// that reproduces exactly is correct but failed. A known failure that now
// yields a well-formed row for the same point is accepted as fixed: no
// reference row exists for it, so a later fix lowers the failed count
// instead of reading as incorrect.
func check(id, row string, err error, want expectation) verdict {
	switch {
	case want.err != "" && err != nil:
		return verdict{correct: err.Error() == want.err, failed: true}
	case want.err != "":
		return verdict{correct: wellFormed(id, row), failed: false}
	case err != nil:
		return verdict{correct: false, failed: true}
	default:
		ok := row == want.row
		return verdict{correct: ok, failed: !ok}
	}
}

// wellFormed reports whether row is a metrics row for point id.
func wellFormed(id, row string) bool {
	first, rest, ok := strings.Cut(row, "\t")
	return ok && first == id && strings.Contains(rest, "=")
}

// readExpected loads a file of key<TAB>row lines (row may be
// "ERROR <text>"). A golden matrix file is the special case where the key
// is the row's own first column; pass keyed=false for it.
func readExpected(path string, keyed bool) (map[string]expectation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]expectation)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		key, row := line, line
		if k, r, ok := strings.Cut(line, "\t"); ok {
			key = k
			if keyed {
				row = r
			}
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("%s: duplicate key %q", path, key)
		}
		if e, ok := strings.CutPrefix(row, errPrefix); ok {
			out[key] = expectation{err: e}
		} else {
			out[key] = expectation{row: row}
		}
	}
	return out, sc.Err()
}

// counters are the simulated-behaviour totals read from metrics rows.
type counters struct {
	memTransactions, memL1Hits, memL1Misses, memInvalidations uint64
	netMessages, netCollisions                                uint64
	retx, drops                                               uint64
}

// add accumulates the counters a row reports: its mem={...} and
// net={...} structs and the lossy-channel retx= and drops= columns.
// Columns a row lacks add nothing.
func (c *counters) add(row string) error {
	cols := strings.Split(row, "\t")
	for _, col := range cols[1:] {
		name, val, ok := strings.Cut(col, "=")
		if !ok {
			return fmt.Errorf("row %q: column %q has no value", cols[0], col)
		}
		var err error
		switch name {
		case "mem":
			var f map[string]uint64
			if f, err = structFields(val); err == nil {
				c.memTransactions += f["Transactions"]
				c.memL1Hits += f["L1Hits"]
				c.memL1Misses += f["L1Misses"]
				c.memInvalidations += f["Invalidations"]
			}
		case "net":
			var f map[string]uint64
			if f, err = structFields(val); err == nil {
				c.netMessages += f["Messages"]
				c.netCollisions += f["Collisions"]
			}
		case "retx":
			var n uint64
			n, err = strconv.ParseUint(val, 10, 64)
			c.retx += n
		case "drops":
			var n uint64
			n, err = strconv.ParseUint(val, 10, 64)
			c.drops += n
		}
		if err != nil {
			return fmt.Errorf("row %q: column %s: %w", cols[0], name, err)
		}
	}
	return nil
}

// structFields parses a %+v-rendered struct of unsigned counters,
// "{A:1 B:2}", into its fields.
func structFields(s string) (map[string]uint64, error) {
	inner, ok := strings.CutPrefix(s, "{")
	if inner, ok = strings.CutSuffix(inner, "}"); !ok {
		return nil, fmt.Errorf("%q is not a struct", s)
	}
	out := make(map[string]uint64)
	for _, kv := range strings.Fields(inner) {
		k, v, ok := strings.Cut(kv, ":")
		if !ok {
			return nil, fmt.Errorf("field %q has no value", kv)
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", kv, err)
		}
		out[k] = n
	}
	return out, nil
}
