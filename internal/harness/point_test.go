package harness

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wisync/internal/config"
	"wisync/internal/fault"
)

// quickSpecs is a small batch of fast golden-covered points spanning kinds
// and seeds.
func quickSpecs() []PointSpec {
	return []PointSpec{
		{Workload: "tightloop", Kind: config.Baseline, Cores: 16, Seed: 1},
		{Workload: "tightloop", Kind: config.WiSync, Cores: 16, Seed: 1},
		{Workload: "tightloop", Kind: config.WiSync, Cores: 16, Seed: 77},
		{Workload: "tightloop", Kind: config.BaselinePlus, Cores: 16, Seed: 2},
		{Workload: "liv6", Kind: config.WiSync, Cores: 16, Seed: 1, N: 16},
	}
}

// TestRunPointsPanicIsolation is the regression test for the sweep-worker
// bugfix: a panic inside one point's simulation must surface as that
// outcome's Err while every other point's row stays bit-identical to a
// clean batch — one bad job point cannot take down the pool or perturb its
// neighbors.
func TestRunPointsPanicIsolation(t *testing.T) {
	specs := quickSpecs()
	clean := RunPoints(Options{Workers: 3}, specs)
	for _, o := range clean {
		if o.Err != nil {
			t.Fatalf("clean run errored on %s: %v", o.Spec.ID(), o.Err)
		}
		if o.Row == "" {
			t.Fatalf("clean run produced empty row for %s", o.Spec.ID())
		}
	}

	// Inject a panic into exactly the seed-77 point.
	pointRunHook = func(s PointSpec) {
		if s.Seed == 77 {
			panic("injected: simulated core meltdown")
		}
	}
	defer func() { pointRunHook = nil }()

	poisoned := RunPoints(Options{Workers: 3}, specs)
	for i, o := range poisoned {
		if specs[i].Seed == 77 {
			if o.Err == nil {
				t.Fatalf("injected panic did not surface as an error")
			}
			if !strings.Contains(o.Err.Error(), "panicked") || !strings.Contains(o.Err.Error(), "meltdown") {
				t.Fatalf("panic error lost its message: %v", o.Err)
			}
			if o.Row != "" {
				t.Fatalf("panicking point still produced a row: %q", o.Row)
			}
			continue
		}
		if o.Err != nil {
			t.Fatalf("neighbor %s errored after injected panic: %v", o.Spec.ID(), o.Err)
		}
		if o.Row != clean[i].Row {
			t.Fatalf("neighbor %s row changed after injected panic:\nclean:    %s\npoisoned: %s",
				o.Spec.ID(), clean[i].Row, o.Row)
		}
	}
}

// TestRunPointsSharedFaultPlan runs several specs that share one unsorted
// fault plan on concurrent workers (meaningful under -race): each worker
// normalizes its own copy, so the caller's plan is left untouched and the
// points, identical but for their slot, produce identical rows.
func TestRunPointsSharedFaultPlan(t *testing.T) {
	plan := &fault.Plan{
		Outages:   []fault.Outage{{Node: 9, At: 4000, For: 300}, {Node: 2, At: 1500, For: 200}, {Node: 5, At: 1500, For: 100}},
		TokenLoss: []uint64{7000, 2500},
	}
	orig := plan.Clone()
	specs := make([]PointSpec, 4)
	for i := range specs {
		specs[i] = PointSpec{Workload: "tightloop", Kind: config.WiSync, Cores: 16, Seed: 1, Faults: plan}
	}
	out := RunPoints(Options{Workers: len(specs)}, specs)
	if !reflect.DeepEqual(plan, orig) {
		t.Fatalf("running the points rewrote the caller's plan:\n got %+v\nwant %+v", plan, orig)
	}
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("point %d: %v", i, o.Err)
		}
		if o.Row != out[0].Row {
			t.Fatalf("point %d row differs from point 0:\n%s\n%s", i, o.Row, out[0].Row)
		}
	}
	n, err := specs[0].Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Faults == plan || n.Faults.Outages[0] != orig.Outages[1] || n.Faults.TokenLoss[0] != orig.TokenLoss[1] {
		t.Fatalf("Normalize did not return a sorted copy: %+v", n.Faults)
	}
}

// TestRunPointsWorkerInvariance pins that outcomes are in spec order and
// byte-identical at any worker count.
func TestRunPointsWorkerInvariance(t *testing.T) {
	specs := quickSpecs()
	seq := RunPoints(Options{Workers: 1}, specs)
	par := RunPoints(Options{Workers: 4}, specs)
	for i := range seq {
		if seq[i].Row != par[i].Row {
			t.Fatalf("point %s differs across worker counts:\n1: %s\n4: %s",
				specs[i].ID(), seq[i].Row, par[i].Row)
		}
	}
}

// TestPointSpecNormalize pins alias resolution, default fill-in, and the
// zeroing of parameters the workload does not read.
func TestPointSpecNormalize(t *testing.T) {
	n, err := PointSpec{Workload: "liv2", Kind: config.WiSync, Cores: 64, Seed: 1, CS: 999}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Workload != "livermore2" {
		t.Fatalf("alias not resolved: %q", n.Workload)
	}
	if n.N != 96 || n.Passes != 1 {
		t.Fatalf("golden defaults not filled: n=%d passes=%d", n.N, n.Passes)
	}
	if n.CS != 0 {
		t.Fatalf("irrelevant CS parameter survived normalization: %d", n.CS)
	}
	if _, err := (PointSpec{Workload: "mystery", Kind: config.WiSync, Cores: 64}).Normalize(); err == nil {
		t.Fatal("unknown workload normalized")
	}
}

// TestPointDigest pins the content-address semantics the cache relies on:
// aliases and defaults collapse onto one digest; the seed does not split
// it; workload parameters and machine configuration do.
func TestPointDigest(t *testing.T) {
	digest := func(s PointSpec) string {
		t.Helper()
		d, err := s.Digest()
		if err != nil {
			t.Fatalf("Digest(%+v): %v", s, err)
		}
		return d
	}
	base := PointSpec{Workload: "livermore2", Kind: config.WiSync, Cores: 64, Seed: 1, N: 96, Passes: 1}
	alias := PointSpec{Workload: "liv2", Kind: config.WiSync, Cores: 64, Seed: 9, CS: 5}
	if digest(base) != digest(alias) {
		t.Fatal("alias/defaults/seed split the digest; cache would never hit")
	}
	for name, other := range map[string]PointSpec{
		"workload": {Workload: "livermore3", Kind: config.WiSync, Cores: 64, Seed: 1},
		"kind":     {Workload: "livermore2", Kind: config.Baseline, Cores: 64, Seed: 1},
		"cores":    {Workload: "livermore2", Kind: config.WiSync, Cores: 128, Seed: 1},
		"n":        {Workload: "livermore2", Kind: config.WiSync, Cores: 64, Seed: 1, N: 128},
		"variant":  {Workload: "livermore2", Kind: config.WiSync, Cores: 64, Seed: 1, Variant: config.SlowNet},
		"mac":      {Workload: "livermore2", Kind: config.WiSync, Cores: 64, Seed: 1, MAC: 1},
	} {
		if digest(base) == digest(other) {
			t.Errorf("changing %s did not move the point digest", name)
		}
	}
}

// TestPointSpecValidate pins that every malformed-spec class is an error,
// and that Run returns those errors instead of panicking.
func TestPointSpecValidate(t *testing.T) {
	good := PointSpec{Workload: "tightloop", Kind: config.WiSync, Cores: 64, Seed: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("good spec invalid: %v", err)
	}
	bad := map[string]PointSpec{
		"unknown workload": {Workload: "mystery", Kind: config.WiSync, Cores: 64, Seed: 1},
		"unknown app":      {Workload: "app:doom", Kind: config.WiSync, Cores: 64, Seed: 1},
		"zero cores":       {Workload: "tightloop", Kind: config.WiSync, Seed: 1},
		"too many cores":   {Workload: "tightloop", Kind: config.WiSync, Cores: 500, Seed: 1},
		"bad kind":         {Workload: "tightloop", Kind: 9, Cores: 64, Seed: 1},
		"bad variant":      {Workload: "tightloop", Kind: config.WiSync, Cores: 64, Seed: 1, Variant: 9},
		"bad mac":          {Workload: "tightloop", Kind: config.WiSync, Cores: 64, Seed: 1, MAC: 9},
		"iters beyond cap": {Workload: "tightloop", Kind: config.WiSync, Cores: 64, Seed: 1, Iters: maxIters + 1},
		"n beyond cap":     {Workload: "liv2", Kind: config.WiSync, Cores: 64, Seed: 1, N: maxVecLen + 1},
	}
	for name, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
		row, err := s.Run()
		if err == nil {
			t.Errorf("%s: Run succeeded with row %q", name, row)
		}
	}
}

// TestPointDigestPinned pins PointSpec.Digest to literal values, so
// entries a disk cache (-cache-dir, files named <digest>-s<seed>.row)
// stored under an earlier build stay valid: a change to the digest key
// silently orphans every cached row.
func TestPointDigestPinned(t *testing.T) {
	for _, c := range []struct {
		spec PointSpec
		want string
	}{
		{PointSpec{Workload: "livermore2", Kind: config.WiSync, Cores: 64, Seed: 1, N: 96, Passes: 1},
			"f836508069741347d6cba8943bcf6c0d611869e99f33ab826fab8f070af0116d"},
		{PointSpec{Workload: "tightloop", Kind: config.Baseline, Cores: 16, Seed: 1},
			"9e3363a2bf2ce8480f2fced06e2a9b8cc38b8ec63d29c902cf7459058de74254"},
	} {
		got, err := c.spec.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: digest %s, want %s", c.spec.ID(), got, c.want)
		}
	}
	// A spec serialized by a build that still had the execution-mode or
	// engine-shard field decodes, ignoring the field, to the same point.
	for _, field := range []string{`"exec":"thread"`, `"shards":4`} {
		var old PointSpec
		if err := json.Unmarshal([]byte(`{"workload":"tightloop","kind":"Baseline","cores":16,"seed":1,`+field+`}`), &old); err != nil {
			t.Fatal(err)
		}
		if got, err := old.Digest(); err != nil || got != "9e3363a2bf2ce8480f2fced06e2a9b8cc38b8ec63d29c902cf7459058de74254" {
			t.Errorf("spec carrying %s: digest %s (%v), want the pinned tightloop digest", field, got, err)
		}
	}
}

// TestWorkloadsNormalize pins Workloads as the vocabulary Normalize
// accepts: every listed name and every short alias normalizes, and an
// alias lands on a listed name.
func TestWorkloadsNormalize(t *testing.T) {
	for _, w := range Workloads {
		if _, err := (PointSpec{Workload: w, Kind: config.WiSync, Cores: 16}).Normalize(); err != nil {
			t.Errorf("listed workload %q: %v", w, err)
		}
	}
	for alias := range workloadAliases {
		n, err := PointSpec{Workload: alias, Kind: config.WiSync, Cores: 16}.Normalize()
		if err != nil || !slices.Contains(Workloads, n.Workload) {
			t.Errorf("alias %q normalized to %q (%v), not a listed workload", alias, n.Workload, err)
		}
	}
}
