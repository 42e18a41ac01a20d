package main

import "testing"

const cpuTraces = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 60000000ns (6.00%)
-----------+-------------------------------------------------------
10000000ns   wisync/internal/sim.(*Engine).Run
             wisync/internal/harness.PointSpec.RunCtx
             main.main
-----------+-------------------------------------------------------
10000000ns   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
10000000ns   runtime.nextFreeFast (inline)
             runtime.mallocgc
             runtime.newobject
             wisync/internal/mem.(*System).Read
-----------+-------------------------------------------------------
10000000ns   internal/runtime/maps.(*Map).getWithKeySmall
             runtime.mapaccess1_fast64
             wisync/internal/wireless.(*Network).Send
-----------+-------------------------------------------------------
10000000ns   strconv.FormatFloat
             wisync/internal/harness.gf
-----------+-------------------------------------------------------
10000000ns   slices.pdqsortCmpFunc[go.shape.struct { a/b.c int }]
             runtime.memmove
             wisync/internal/fault.(*Plan).Normalize
`

func TestParseTracesAndAggregateCPU(t *testing.T) {
	samples, total, err := parseTraces([]byte(cpuTraces))
	if err != nil {
		t.Fatal(err)
	}
	if total != 60000000 || len(samples) != 6 {
		t.Fatalf("total %d, %d samples", total, len(samples))
	}
	if got := len(samples[0].stack); got != 3 {
		t.Errorf("first stack has %d frames, want 3", got)
	}
	got := aggregate(samples, cpuBucket)
	want := map[string]int64{"sim": 1e7, "runtime_gc": 1e7, "runtime_malloc": 1e7,
		"runtime_maps": 1e7, "stdlib": 2e7}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("bucket %s = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
	var sum int64
	for _, v := range got {
		sum += v
	}
	if sum != total {
		t.Errorf("buckets sum to %d, want the profile total %d", sum, total)
	}
}

func TestAllocBucketInnermostSimFrame(t *testing.T) {
	traces := `Type: alloc_space
-----------+-------------------------------------------------------
     bytes:  2.25kB
     4096B   runtime.makeslice
             wisync/internal/noc.New
             wisync/internal/core.New
-----------+-------------------------------------------------------
     1024B   encoding/json.Marshal
             main.main
`
	samples, total, err := parseTraces([]byte(traces))
	if err != nil {
		t.Fatal(err)
	}
	if total != -1 {
		t.Errorf("alloc profile reported a CPU total %d", total)
	}
	got := aggregate(samples, allocBucket)
	if got["noc"] != 4096 || got["other"] != 1024 || len(got) != 2 {
		t.Errorf("alloc buckets = %v", got)
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"wisync/internal/sim.(*Engine).Run":                  "wisync/internal/sim",
		"runtime.mallocgc":                                   "runtime",
		"internal/runtime/maps.(*table).grow":                "internal/runtime/maps",
		"main.main":                                          "main",
		"encoding/json.(*encodeState).marshal (inline)":      "encoding/json",
		"slices.SortFunc[go.shape.struct { x/y.z int }]":     "slices",
		"wisync/internal/harness.PointSpec.RunCtx.func1":     "wisync/internal/harness",
		"wisync/internal/wireless/mac.(*MAC).Grant (inline)": "wisync/internal/wireless/mac",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
	if b := simBucket("wisync/internal/wireless/mac"); b != "wireless" {
		t.Errorf("sub-package bucket = %q", b)
	}
	if b := simBucket("wisync/internal/journal"); b != "other" {
		t.Errorf("non-layer wisync package bucket = %q", b)
	}
}
