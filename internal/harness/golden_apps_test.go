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

	want := loadGolden(t, goldenAppsPath)
	compareToGolden(t, want, strings.Split(strings.TrimRight(got, "\n"), "\n"))
	if len(want) != len(AppGoldenPoints()) {
		t.Errorf("apps golden file has %d points, matrix has %d (regenerate with -update-golden)",
			len(want), len(AppGoldenPoints()))
	}
}
