package exp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedArtifactsReproduce is the refactor oracle: the five grids
// `make bench-smoke` writes, regenerated at its seeds (1–2), must match the
// committed root BENCH_*.json byte for byte. A change that moves any
// virtual-time result has to regenerate the artifacts in the same commit.
func TestCommittedArtifactsReproduce(t *testing.T) {
	grids := []struct {
		name string
		grid []Scenario
	}{
		{"smoke", SmokeGrid(1, 2)},
		{"churn", ChurnGrid(1, 2)},
		{"convergence", ConvergenceGrid(1, 2)},
		{"spray", SprayGrid(1, 2)},
		{"reps", RepsGrid(1, 2)},
	}
	for _, g := range grids {
		got, err := NewReport(g.name, Runner{Parallel: 2}.Run(g.grid)).JSON()
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		path := filepath.Join("..", "..", FileName(g.name))
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s is stale (run `make bench-smoke` and commit the result): %s", path, firstDiff(got, want))
		}
	}
}

// firstDiff locates the first line where two reports diverge, for an
// actionable failure message.
func firstDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range al {
		if i >= len(bl) || !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d: %q vs %q", i+1, al[i], bl[min(i, len(bl)-1)])
		}
	}
	return "reports differ in length only"
}
