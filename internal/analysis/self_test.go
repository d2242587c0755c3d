package analysis_test

import (
	"path/filepath"
	"testing"

	simvet "repro/internal/analysis"
	"repro/internal/analysis/driver"
)

// TestRepoIsClean runs the full simvet suite over the repository itself —
// the same invocation as `go run ./cmd/simvet ./...` and the CI simvet job —
// and requires zero diagnostics. This is the determinism contract as a
// tier-1 test: any new wall-clock read, global rand draw, unsorted map
// iteration, single-float sort, or unguarded event closure in the tree turns
// this red.
//
// It doubles as the scope test: cmd/experiments legitimately times its own
// wall clock, and the run stays clean because walltime and globalrand only
// apply inside internal/.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the std closure from source; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	res, err := driver.Run(root, []string{"./..."}, simvet.All())
	if err != nil {
		t.Fatalf("simvet driver: %v", err)
	}
	for _, d := range res.Diagnostics {
		t.Errorf("simvet: %s", d)
	}
	if res.Packages < 20 {
		t.Errorf("analyzed only %d packages; expected the whole repo (>20) — pattern or driver regression", res.Packages)
	}
	for _, s := range res.Suppressions {
		if s.Reason == "" {
			t.Errorf("suppression without a reason at %s — simvetallow must reject this", s.Pos)
		}
		t.Logf("suppressed: %s: %s (reason: %s)", s.Pos, s.Analyzer, s.Reason)
	}
}
