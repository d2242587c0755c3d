package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// expectedSuitePath holds the full-scale tables the benchmark checks every
// suite pass against; this test reads the same file, so a table is recorded
// in one place only.
var expectedSuitePath = filepath.Join("..", "..", "bench", "testdata", "expected-seed1.json")

// TestFullScaleTablesPinned renders E4 and E13, the two tables whose trials
// go wide inside an experiment (E4's crack attempts through core.First,
// E13's worlds through core.Sweep), at DefaultScale and GOMAXPROCS 4, and
// requires the tables in expectedSuitePath. Those were rendered by the
// serial loops, so a match shows that the order in which four workers take
// attempts and worlds does not reach the tables.
func TestFullScaleTablesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("renders two full-scale tables")
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
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, run := range []func(Scale) Table{E4FMSCrack, E13FirstHopRogue} {
		tbl := run(DefaultScale)
		want, ok := expected.Suite[tbl.ID]
		if !ok {
			t.Fatalf("%s: no %s table", expectedSuitePath, tbl.ID)
		}
		if got := tbl.String(); got != want {
			t.Errorf("full-scale %s differs.\n--- got ---\n%s--- want ---\n%s", tbl.ID, got, want)
		}
	}
}
