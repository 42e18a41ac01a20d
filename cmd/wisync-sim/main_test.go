package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// loadGolden reads the kernel golden matrix as an id -> row map.
func loadGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../../internal/harness/testdata/golden.tsv")
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		id, _, _ := strings.Cut(line, "\t")
		rows[id] = line
	}
	return rows
}

// runSim runs the command and returns its exit status and output.
func runSim(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestDefaultRunsPrintGoldenRows pins the front end to the golden matrix:
// with only the workload, kind and core counts named, every point prints,
// after the header, exactly its testdata/golden.tsv row — short workload
// names included.
func TestDefaultRunsPrintGoldenRows(t *testing.T) {
	golden := loadGolden(t)
	for _, c := range []struct {
		config, cores, workload string
		want                    []string
	}{
		{"Baseline", "16,64", "tightloop", []string{"tightloop/Baseline/16c/s1", "tightloop/Baseline/64c/s1"}},
		{"Baseline+", "16,64", "tightloop", []string{"tightloop/Baseline+/16c/s1", "tightloop/Baseline+/64c/s1"}},
		{"WiSyncNoT", "16,64", "tightloop", []string{"tightloop/WiSyncNoT/16c/s1", "tightloop/WiSyncNoT/64c/s1"}},
		{"WiSync", "16,64", "tightloop", []string{"tightloop/WiSync/16c/s1", "tightloop/WiSync/64c/s1"}},
		{"Baseline", "16", "liv2", []string{"livermore2/Baseline/16c/s1"}},
		{"WiSync", "16", "liv2", []string{"livermore2/WiSync/16c/s1"}},
		{"Baseline", "16", "livermore6", []string{"livermore6/Baseline/16c/s1"}},
		{"WiSync", "16", "livermore6", []string{"livermore6/WiSync/16c/s1"}},
		{"Baseline", "16", "fifo", []string{"cas-fifo/Baseline/16c/s1"}},
		{"WiSync", "16", "fifo", []string{"cas-fifo/WiSync/16c/s1"}},
	} {
		code, out, errOut := runSim("-config", c.config, "-cores", c.cores, "-workload", c.workload, "-workers", "2")
		if code != 0 {
			t.Fatalf("%s %s: exit %d: %s", c.config, c.workload, code, errOut)
		}
		lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
		if !strings.HasPrefix(lines[0], "# wisync-sim ") {
			t.Fatalf("%s %s: no header line: %q", c.config, c.workload, lines[0])
		}
		var want []string
		for _, id := range c.want {
			want = append(want, golden[id])
		}
		if got := strings.Join(lines[1:], "\n"); got != strings.Join(want, "\n") {
			t.Errorf("%s %s: rows diverged from golden\n got: %s\nwant: %s", c.config, c.workload, got, strings.Join(want, "\n"))
		}
	}
}

// TestFaultCommand runs the README's fault-injection example: it must
// succeed and carry the degradation record.
func TestFaultCommand(t *testing.T) {
	code, out, errOut := runSim("-config", "WiSync", "-cores", "16", "-workload", "cas-add", "-mac", "token",
		"-faults", `{"outages":[{"node":3,"at":8000},{"node":7,"at":1000,"for":2000}]}`)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "\tfaults=") {
		t.Fatalf("row has no faults= column:\n%s", out)
	}
}

// TestUsageErrors pins that bad points are rejected before any simulation:
// an unknown workload and an out-of-range core count exit 2.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "mystery"},
		{"-cores", "500"},
	} {
		code, out, errOut := runSim(args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stdout %q)", args, code, out)
		}
		if out != "" || errOut == "" {
			t.Errorf("%v: want a diagnostic on stderr and nothing on stdout, got stdout %q stderr %q", args, out, errOut)
		}
	}
}
