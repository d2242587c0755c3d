package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// benchExpectedPath holds the outputs the benchmark checks its seed-1 runs
// against. The tests below read the same file, so each digest is recorded in
// one place only.
var benchExpectedPath = filepath.Join("..", "..", "bench", "testdata", "expected-seed1.json")

type benchExpected struct {
	Chaos      map[string]string `json:"chaos"`
	CampusJoin struct {
		Digest     string `json:"digest"`
		Associated int    `json:"associated"`
	} `json:"campus_join"`
	CampusSteady struct {
		WarmDigest string   `json:"warm_digest"`
		Associated int      `json:"associated"`
		Windows    []string `json:"windows"`
	} `json:"campus_steady"`
}

func readBenchExpected(t *testing.T) benchExpected {
	t.Helper()
	raw, err := os.ReadFile(benchExpectedPath)
	if err != nil {
		t.Fatal(err)
	}
	var e benchExpected
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("%s: %v", benchExpectedPath, err)
	}
	return e
}

// TestBenchChaosDigestsPinned replays the benchmark's chaos-matrix pass at
// seed 1: the seven named scenarios and the healthy world under the four
// builtin schedules, at seeds 1, 7 and 42, with invariant checks off as the
// benchmark runs them. Every digest must equal the committed one, keyed
// seed/schedule for the faulted healthy points and seed/scenario otherwise,
// and every faulted point must converge.
func TestBenchChaosDigestsPinned(t *testing.T) {
	want := readBenchExpected(t).Chaos
	type point struct {
		seed             uint64
		scenario, faults string
	}
	var pts []point
	for _, seed := range []uint64{1, 7, 42} {
		for _, sc := range []string{"healthy", "attack", "vpn", "mesh", "detect", "chaos-apcrash", "chaos-relay"} {
			pts = append(pts, point{seed: seed, scenario: sc})
		}
		for _, f := range []string{"deauth-storm", "ap-restart", "burst-loss", "mixed"} {
			pts = append(pts, point{seed: seed, scenario: "healthy", faults: f})
		}
	}
	if len(pts) != len(want) {
		t.Fatalf("matrix has %d points, %s pins %d", len(pts), benchExpectedPath, len(want))
	}
	got := Sweep(pts, func(p point) string {
		o, err := RunScenarioOpts(p.scenario, p.seed, ScenarioOpts{Faults: p.faults})
		switch {
		case err != nil:
			return err.Error()
		case (p.faults != "" || strings.HasPrefix(p.scenario, "chaos-")) && !o.Converged:
			return "did not converge"
		}
		return fmt.Sprintf("%016x", o.Digest)
	})
	for i, p := range pts {
		key := fmt.Sprintf("%d/%s", p.seed, p.scenario)
		if p.faults != "" {
			key = fmt.Sprintf("%d/%s", p.seed, p.faults)
		}
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: not pinned in %s", key, benchExpectedPath)
			continue
		}
		if got[i] != w {
			t.Errorf("%s: got %s, want %s", key, got[i], w)
		}
	}
}

// benchCampus is the benchmark's campus layout: topology seed 1 whatever the
// run seed, and the rogue on.
func benchCampus(aps, stas int) *CampusWorld {
	return NewCampusWorld(CampusConfig{
		Seed:     1,
		Rogue:    true,
		Topology: TopologyConfig{Kind: TopoCampus, Seed: 1, APs: aps, STAs: stas},
	})
}

func checkBenchCampus(t *testing.T, what string, w *CampusWorld, associated int, digest string) {
	t.Helper()
	if r := w.Result(); r.Associated != associated || r.STAs != associated {
		t.Errorf("%s: %d/%d stations associated, want %d", what, r.Associated, r.STAs, associated)
	}
	if got := fmt.Sprintf("%016x", w.Kernel.Digest()); got != digest {
		t.Errorf("%s: digest %s, want %s", what, got, digest)
	}
}

// TestBenchCampusJoinPinned runs the benchmark's campus-join unit at seed 1:
// 32 APs and 512 stations from cold through 6 simulated seconds.
func TestBenchCampusJoinPinned(t *testing.T) {
	want := readBenchExpected(t).CampusJoin
	w := benchCampus(32, 512)
	w.Run(6 * sim.Second)
	checkBenchCampus(t, "campus-join", w, want.Associated, want.Digest)
}

// TestBenchCampusSteadyPinned runs the benchmark's campus-steady session at
// seed 1: 64 APs and 1,024 stations warmed through 6 simulated seconds, then
// the first two 2-second windows of the same world.
func TestBenchCampusSteadyPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 1,024-station campus for 10 simulated seconds")
	}
	want := readBenchExpected(t).CampusSteady
	if len(want.Windows) < 2 {
		t.Fatalf("%s pins %d campus-steady windows, want at least 2", benchExpectedPath, len(want.Windows))
	}
	w := benchCampus(64, 1024)
	w.Run(6 * sim.Second)
	checkBenchCampus(t, "warm-up", w, want.Associated, want.WarmDigest)
	for i, d := range want.Windows[:2] {
		w.Run(2 * sim.Second)
		checkBenchCampus(t, fmt.Sprintf("window %d", i), w, want.Associated, d)
	}
}
