package harness

import (
	"os"
	"strings"
	"testing"
)

// Regenerate the apps golden file after an INTENDED behavior change with:
//
//	go test ./internal/harness -run TestGoldenAppsConformance -update-golden
//
// Like golden.tsv, the committed file is the reference: it was generated
// from the blocking interpreter BEFORE the task-form port, and the
// interpreter must keep reproducing it byte for byte.
const goldenAppsPath = "testdata/golden_apps.tsv"

func loadGoldenApps(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(goldenAppsPath)
	if err != nil {
		t.Fatalf("no apps golden file (generate with -update-golden): %v", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		id, _, _ := strings.Cut(line, "\t")
		want[id] = line
	}
	return want
}

// TestGoldenAppsConformance re-runs the full-application conformance
// matrix and asserts each metrics line is byte-identical to the committed
// file.
func TestGoldenAppsConformance(t *testing.T) {
	got := AppGoldenTable(Options{}, nil)

	if *updateGolden {
		if err := os.WriteFile(goldenAppsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d apps golden points to %s", len(AppGoldenPoints()), goldenAppsPath)
		return
	}

	want := loadGoldenApps(t)
	compareToGolden(t, want, strings.Split(strings.TrimRight(got, "\n"), "\n"))
	if len(want) != len(AppGoldenPoints()) {
		t.Errorf("apps golden file has %d points, matrix has %d (regenerate with -update-golden)",
			len(want), len(AppGoldenPoints()))
	}
}
