package core

import (
	"runtime"
	"testing"
)

// TestSweepConcurrentWorlds runs more simulation points than GOMAXPROCS so
// every worker is saturated and worlds run truly concurrently. Each point
// builds and runs its own World; under -race this proves independent worlds
// share no mutable state. Results must come back in point order and must be
// deterministic per seed regardless of which worker ran them.
func TestSweepConcurrentWorlds(t *testing.T) {
	n := 2*runtime.GOMAXPROCS(0) + 4
	points := make([]uint64, n)
	for i := range points {
		points[i] = uint64(i%3 + 1) // seeds repeat so equal seeds must agree
	}

	run := func(seed uint64) uint64 {
		o, err := RunScenarioOpts("attack", seed, ScenarioOpts{Checks: true})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return 0
		}
		return o.Digest
	}

	digests := Sweep(points, run)
	if len(digests) != n {
		t.Fatalf("Sweep returned %d results, want %d", len(digests), n)
	}

	// Point order: results[i] must belong to points[i]. Equal seeds anywhere
	// in the sweep must produce equal digests, distinct seeds distinct ones.
	bySeed := map[uint64]uint64{}
	for i, d := range digests {
		if d == 0 {
			t.Fatalf("point %d (seed %d): zero digest", i, points[i])
		}
		if prev, ok := bySeed[points[i]]; ok && prev != d {
			t.Fatalf("seed %d produced digests %016x and %016x across workers", points[i], prev, d)
		}
		bySeed[points[i]] = d
	}
	if len(bySeed) != 3 {
		t.Fatalf("expected 3 distinct seed digests, got %d", len(bySeed))
	}
	for s1, d1 := range bySeed {
		for s2, d2 := range bySeed {
			if s1 != s2 && d1 == d2 {
				t.Fatalf("seeds %d and %d collided on digest %016x", s1, s2, d1)
			}
		}
	}
}
