package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// poolWorkers returns a worker count that genuinely exercises the pool,
// even on single-CPU machines where GOMAXPROCS is 1.
func poolWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 4
	}
	return w
}

func TestForEachCoversAllJobsOnce(t *testing.T) {
	const n = 500
	var hits [n]atomic.Int32
	Options{Workers: 7}.forEach(n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("job %d ran %d times", i, got)
		}
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic was swallowed")
		}
	}()
	Options{Workers: 3}.forEach(10, func(i int) {
		if i == 4 {
			panic("boom")
		}
	})
}

// TestWorkersBitIdentical asserts the acceptance property of the sweep
// pool: every harness row and every rendered table is bit-identical
// between sequential execution and a full worker pool, because each sweep
// point is an independent simulation with its own seed.
func TestWorkersBitIdentical(t *testing.T) {
	seq := Options{Quick: true, Workers: 1}
	par := Options{Quick: true, Workers: poolWorkers()}

	var seqOut, parOut strings.Builder
	seqRows := Fig7(Options{Quick: true, Workers: 1, Out: &seqOut})
	parRows := Fig7(Options{Quick: true, Workers: par.Workers, Out: &parOut})
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Errorf("Fig7 rows differ between Workers=1 and Workers=%d", par.Workers)
	}
	if seqOut.String() != parOut.String() {
		t.Errorf("Fig7 rendered tables differ between worker counts")
	}
	// The headline benchmark metric must also be identical.
	metric := func(rows []Fig7Row) float64 {
		var base, w float64
		for _, r := range rows {
			if r.Cores == 128 {
				switch r.Kind.String() {
				case "Baseline":
					base = r.CyclesPerIter
				case "WiSync":
					w = r.CyclesPerIter
				}
			}
		}
		return base / w
	}
	if a, b := metric(seqRows), metric(parRows); a != b {
		t.Errorf("baseline/wisync@128c differs: %v vs %v", a, b)
	}

	if !reflect.DeepEqual(Fig8(seq), Fig8(par)) {
		t.Errorf("Fig8 rows differ between Workers=1 and Workers=%d", par.Workers)
	}
	if !reflect.DeepEqual(Fig9(seq), Fig9(par)) {
		t.Errorf("Fig9 rows differ between Workers=1 and Workers=%d", par.Workers)
	}
}

// TestWorkersBitIdenticalApps is the same property over the application
// suite (Figure 10 rows feed Table 5).
func TestWorkersBitIdenticalApps(t *testing.T) {
	if testing.Short() {
		t.Skip("application sweep")
	}
	seq := Fig10(Options{Quick: true, Workers: 1})
	par := Fig10(Options{Quick: true, Workers: poolWorkers()})
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("Fig10 rows differ between worker counts")
	}
	var seqT5, parT5 strings.Builder
	Table5(Options{Out: &seqT5}, seq)
	Table5(Options{Out: &parT5}, par)
	if seqT5.String() != parT5.String() {
		t.Errorf("Table 5 differs between worker counts")
	}
}

// BenchmarkHarnessParallel measures the sweep-level speedup of the worker
// pool on the Figure 7 regeneration. The reported rows are identical at
// every worker count; only wall time changes.
func BenchmarkHarnessParallel(b *testing.B) {
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Fig7(Options{Quick: true, Workers: w})
			}
		})
	}
}
