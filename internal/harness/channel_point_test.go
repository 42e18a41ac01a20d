package harness

import (
	"strings"
	"testing"

	"wisync/internal/channel"
	"wisync/internal/config"
)

// lossySpec is the reference lossy sweep point of this suite: a workload
// that hammers the Data channel (WiSyncNoT routes all synchronization
// through it), at a BER where a visible fraction of frames corrupt
// (77 bits x 63 receivers x 1e-5 ~ 5% per frame) but the retry budget is
// effectively never exhausted.
func lossySpec() PointSpec {
	return PointSpec{
		Workload: "tightloop", Kind: config.WiSyncNoT, Cores: 64, Seed: 3,
		Channel: channel.Uniform, BER: 1e-5, Retries: 20,
	}
}

// col extracts the value of a key=value column from a rendered row.
func col(t *testing.T, row, key string) string {
	t.Helper()
	for _, c := range strings.Split(row, "\t") {
		if v, ok := strings.CutPrefix(c, key+"="); ok {
			return v
		}
	}
	t.Fatalf("row has no %s column: %s", key, row)
	return ""
}

// TestLossyPointDeterministic pins the acceptance criterion for the lossy
// channel: a nonzero-BER point reports retransmissions and a nonzero
// energy total, and its row is byte-identical across reruns and sweep
// worker counts — corruption draws happen in commit-event order, which the
// engine keeps invariant.
func TestLossyPointDeterministic(t *testing.T) {
	base := lossySpec()
	ref, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v := col(t, ref, "retx"); v == "0" {
		t.Fatalf("no retransmissions at BER %g: %s", base.BER, ref)
	}
	if v := col(t, ref, "energy"); v == "0pJ" {
		t.Fatalf("zero energy total: %s", ref)
	}
	if v := col(t, ref, "drops"); v != "0" {
		t.Fatalf("delivery failures with a 20-retry budget at BER %g: %s", base.BER, ref)
	}
	specs := []PointSpec{base, base, base, base}
	seq := RunPoints(Options{Workers: 1}, specs)
	par := RunPoints(Options{Workers: 4}, specs)
	for i := range specs {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("point %d errored: %v / %v", i, seq[i].Err, par[i].Err)
		}
		if seq[i].Row != ref || par[i].Row != ref {
			t.Errorf("point %d diverged across worker counts\n seq: %s\n par: %s\nwant: %s",
				i, seq[i].Row, par[i].Row, ref)
		}
	}
}

// TestIdealChannelRowMatchesGolden pins that an explicitly-selected ideal
// channel renders rows byte-identical to the committed golden matrix —
// the channel model's existence is invisible until a lossy profile is
// asked for.
func TestIdealChannelRowMatchesGolden(t *testing.T) {
	want := loadGolden(t, goldenPath)
	for _, pt := range []GoldenPoint{
		{Kernel: "tightloop", Kind: config.WiSync, Cores: 16, Seed: 1},
		{Kernel: "cas-fifo", Kind: config.WiSync, Cores: 16, Seed: 1},
		{Kernel: "livermore2", Kind: config.Baseline, Cores: 16, Seed: 1},
	} {
		row := mustRunPoint(PointSpec{Workload: pt.Kernel, Kind: pt.Kind, Cores: pt.Cores,
			Seed: pt.Seed, Channel: channel.Ideal})
		if row != want[pt.ID()] {
			t.Errorf("%s: explicit ideal channel diverged from golden\n got: %s\nwant: %s",
				pt.ID(), row, want[pt.ID()])
		}
	}
}

// TestChannelDigest pins the content-address behavior of the channel
// fields: a lossy profile splits the digest from ideal, equivalent
// normalized forms share one, and stray BER/retry values under the ideal
// profile are zeroed rather than splitting the address.
func TestChannelDigest(t *testing.T) {
	digest := func(s PointSpec) string {
		t.Helper()
		d, err := s.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	base := PointSpec{Workload: "tightloop", Kind: config.WiSync, Cores: 64, Seed: 1}
	lossy := base
	lossy.Channel = channel.Uniform
	if digest(lossy) == digest(base) {
		t.Fatal("lossy profile did not split the digest")
	}
	explicit := lossy
	explicit.BER = 1e-4
	explicit.Retries = channel.DefaultMaxRetries
	if digest(explicit) != digest(lossy) {
		t.Fatal("normalized defaults split the digest from their explicit form")
	}
	other := lossy
	other.BER = 1e-3
	if digest(other) == digest(lossy) {
		t.Fatal("BER did not split the digest")
	}
	strayed := base
	strayed.BER = 0.5
	strayed.Retries = 7
	if digest(strayed) != digest(base) {
		t.Fatal("BER/retries under the ideal profile split the digest")
	}
}

// TestLossyDefaultsAgree pins that the figure sweeps and the point
// vocabulary share one set of lossy-channel defaults: a uniform channel
// with no BER or retry budget named builds, through Options.Config, the
// machine the normalized PointSpec builds — the profile default BER, not
// an error-free medium that only claims to be lossy.
func TestLossyDefaultsAgree(t *testing.T) {
	for _, p := range []channel.Profile{channel.Uniform, channel.Distance, channel.Burst} {
		opt, err := Options{Channel: channel.Params{Profile: p}}.Config(config.WiSyncNoT, 16).Digest()
		if err != nil {
			t.Fatal(err)
		}
		spec, err := PointSpec{Workload: "tightloop", Kind: config.WiSyncNoT, Cores: 16, Channel: p}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		want, err := spec.Config().Digest()
		if err != nil {
			t.Fatal(err)
		}
		if opt != want {
			t.Errorf("%v: Options.Config digest %s, normalized PointSpec digest %s", p, opt, want)
		}
		if spec.BER != channel.DefaultBER {
			t.Errorf("%v: normalized BER %g, want the profile default %g", p, spec.BER, channel.DefaultBER)
		}
	}
}
