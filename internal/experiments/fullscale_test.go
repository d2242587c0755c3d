package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// expectedSuitePath holds the full-scale tables the benchmark checks every
// suite pass against; this test reads the same file, so a table is recorded
// in one place only.
var expectedSuitePath = filepath.Join("..", "..", "bench", "testdata", "expected-seed1.json")

// TestFullScaleTablesPinned renders every registry table the benchmark runs
// at DefaultScale and GOMAXPROCS 4, and requires the tables in
// expectedSuitePath. Those were rendered by serial loops, so a match also
// shows that the order in which four workers take attempts and worlds (E4's
// crack through core.First, every sweep through core.Sweep) does not reach
// the tables. E15 is left out: the benchmark's campus workloads cover its
// worlds at a controlled scale instead.
func TestFullScaleTablesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("renders seventeen full-scale tables")
	}
	raw, err := os.ReadFile(expectedSuitePath)
	if err != nil {
		t.Fatal(err)
	}
	var expected struct {
		Suite map[string]string `json:"suite"`
	}
	if err := json.Unmarshal(raw, &expected); err != nil {
		t.Fatalf("%s: %v", expectedSuitePath, err)
	}
	ran := map[string]bool{}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, e := range Registry {
		if e.ID == "e15" {
			continue
		}
		tbl := e.Run(DefaultScale)
		if strings.ToLower(tbl.ID) != e.ID {
			t.Errorf("registry id %s renders table %s", e.ID, tbl.ID)
		}
		ran[tbl.ID] = true
		want, ok := expected.Suite[tbl.ID]
		if !ok {
			t.Errorf("%s: no %s table", expectedSuitePath, tbl.ID)
			continue
		}
		if got := tbl.String(); got != want {
			t.Errorf("full-scale %s differs.\n--- got ---\n%s--- want ---\n%s", tbl.ID, got, want)
		}
	}
	for id := range expected.Suite {
		if !ran[id] {
			t.Errorf("%s pins table %s, which no registry entry renders", expectedSuitePath, id)
		}
	}
}
