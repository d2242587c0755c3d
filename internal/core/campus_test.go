package core

import (
	"fmt"
	"runtime"
	"testing"
)

// campusDigests pins both campus scenarios at seeds {1, 7, 42} to the
// digests `roguesim -scenario S -seed N -digest` printed when they were
// recorded. Like preSwapChaosDigests they are never regenerated: a replay
// that agrees with itself but not with these values means the schedule
// moved.
var campusDigests = map[string]uint64{
	"campus/1":        0x18f2f6cccd9b7ff1,
	"campus/7":        0x655a802749158d9b,
	"campus/42":       0xaa5c8fa19281bfc5,
	"campus-rogue/1":  0xec6050f3f4a9d44d,
	"campus-rogue/7":  0x1d798b4df69f1536,
	"campus-rogue/42": 0x01f63e78152f8d5d,
}

// TestCampusDigestStability replays both campus scenarios across seeds,
// twice each at GOMAXPROCS 1 and 4: every replay of (scenario, seed) must
// produce its pinned trace digest. The campus worlds run entirely on the
// sharded medium, so this is the determinism contract (DESIGN.md §8, §13)
// applied to the spatial-index delivery path. The GOMAXPROCS axis proves the
// schedule never leaks through core.Sweep-style parallelism or map
// iteration.
func TestCampusDigestStability(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range []string{"campus", "campus-rogue"} {
		for _, seed := range []uint64{1, 7, 42} {
			want, ok := campusDigests[fmt.Sprintf("%s/%d", name, seed)]
			if !ok {
				t.Fatalf("no pinned digest for %s seed %d", name, seed)
			}
			for _, procs := range []int{1, 4, 1, 4} {
				runtime.GOMAXPROCS(procs)
				o, err := RunScenarioOpts(name, seed, ScenarioOpts{})
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				if o.Digest != want {
					t.Errorf("%s seed %d GOMAXPROCS=%d: digest %016x, want %016x",
						name, seed, procs, o.Digest, want)
				}
			}
		}
	}
}

// TestCampusRogueCaptures pins the qualitative §4 result at campus scale:
// the high-power SSID clone captures part of cluster 0 (but not the whole
// campus), harvests their traffic, and the rest of the ESS is unaffected.
func TestCampusRogueCaptures(t *testing.T) {
	o, err := RunScenarioOpts("campus-rogue", 1, ScenarioOpts{Checks: true})
	if err != nil {
		t.Fatal(err)
	}
	r := o.CampusResult
	if r.Associated != r.STAs {
		t.Errorf("associated %d/%d stations", r.Associated, r.STAs)
	}
	if r.OnRogue == 0 {
		t.Error("rogue captured nobody")
	}
	if r.OnRogue >= r.STAs/campusScenarioAPs*2 {
		t.Errorf("rogue captured %d stations — more than its neighbourhood", r.OnRogue)
	}
	if r.RogueFrames == 0 {
		t.Error("rogue harvested no traffic")
	}
	if r.APFrames == 0 {
		t.Error("no traffic reached the legitimate APs")
	}
}

// TestCampusCleanHasNoRogue: without the rogue, every station lands on its
// home AP's BSSID and nothing is harvested.
func TestCampusCleanHasNoRogue(t *testing.T) {
	o, err := RunScenarioOpts("campus", 1, ScenarioOpts{Checks: true})
	if err != nil {
		t.Fatal(err)
	}
	r := o.CampusResult
	if !o.Converged || r.Associated != r.STAs {
		t.Errorf("converged=%v, associated %d/%d", o.Converged, r.Associated, r.STAs)
	}
	if r.OnRogue != 0 || r.RogueFrames != 0 {
		t.Errorf("phantom rogue: OnRogue=%d RogueFrames=%d", r.OnRogue, r.RogueFrames)
	}
	for i, sta := range o.Campus.STAs {
		want := o.Campus.Topo.APs[o.Campus.Topo.STAs[i].Home].BSSID
		if got := sta.BSS().BSSID; got != want {
			t.Fatalf("sta %d associated to %v, want home AP %v", i, got, want)
		}
	}
}
