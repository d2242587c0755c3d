package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden experiment tables")

// TestGoldenTables locks down the rendered output of every experiment at a
// fixed small scale. The worlds are seeded deterministically, so any drift in
// a golden table means the simulation's behaviour changed — either a real
// regression or an intentional change that should be reviewed and then
// re-recorded with `go test ./internal/experiments -run TestGoldenTables -update`.
func TestGoldenTables(t *testing.T) {
	for _, e := range Registry {
		tbl := e.Run(tiny)
		t.Run(tbl.ID, func(t *testing.T) {
			t.Parallel()
			got := tbl.String()
			path := filepath.Join("testdata", fmt.Sprintf("%s.golden", tbl.ID))
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to record): %v", err)
			}
			if got != string(want) {
				t.Errorf("table %s drifted from golden.\n--- got ---\n%s--- want ---\n%s", tbl.ID, got, want)
			}
		})
	}
}
