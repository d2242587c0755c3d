package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/sim"
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

// TestFirstMatchesSerialScan drives First over sizes and truth sets at
// several GOMAXPROCS settings, with per-index busy work of uneven cost so
// the workers interleave differently from run to run. The result must be
// the serial scan's, each test must see strictly increasing indices, and
// every index below the result must be tested exactly once.
func TestFirstMatchesSerialScan(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 5, 64, 300} {
			type truthSet struct {
				name  string
				holds []bool
			}
			sets := []truthSet{{"none", make([]bool, n)}}
			if n > 0 {
				first, last := make([]bool, n), make([]bool, n)
				first[0], last[n-1] = true, true
				sets = append(sets, truthSet{"{0}", first}, truthSet{"{n-1}", last})
			}
			// Densities 1/4, 1/16, 1/64 and 1/256 put the first success
			// anywhere from the first few indices to none at all.
			for seed := uint64(1); seed <= 4; seed++ {
				rng := sim.NewRNG(seed)
				holds := make([]bool, n)
				for i := range holds {
					holds[i] = rng.Intn(1<<(2*seed)) == 0
				}
				sets = append(sets, truthSet{fmt.Sprintf("random seed %d", seed), holds})
			}
			cost := make([]int, n)
			rng := sim.NewRNG(uint64(n))
			for i := range cost {
				cost[i] = rng.Intn(20000)
			}
			for _, set := range sets {
				want := n
				for i, ok := range set.holds {
					if ok {
						want = i
						break
					}
				}
				var mu sync.Mutex
				var seen [][]int
				got := First(n, func() func(int) bool {
					mu.Lock()
					seen = append(seen, nil)
					w := len(seen) - 1
					mu.Unlock()
					var mine []int
					return func(i int) bool {
						x := uint64(i) + 1
						for k := 0; k < cost[i]; k++ {
							x ^= x << 13
							x ^= x >> 7
							x ^= x << 17
						}
						mine = append(mine, i)
						mu.Lock()
						seen[w] = mine
						mu.Unlock()
						// x is never 0; reading it keeps the busy work.
						return set.holds[i] && x != 0
					}
				})
				where := fmt.Sprintf("GOMAXPROCS %d, n %d, truth %s", procs, n, set.name)
				if got != want {
					t.Fatalf("%s: First = %d, serial scan = %d", where, got, want)
				}
				if len(seen) > procs {
					t.Fatalf("%s: newTest called %d times for %d procs", where, len(seen), procs)
				}
				times := make([]int, n)
				for w, idx := range seen {
					for k, i := range idx {
						if k > 0 && i <= idx[k-1] {
							t.Fatalf("%s: worker %d saw index %d after %d", where, w, i, idx[k-1])
						}
						times[i]++
					}
				}
				for i := 0; i < got; i++ {
					if times[i] != 1 {
						t.Fatalf("%s: index %d below the result tested %d times", where, i, times[i])
					}
				}
			}
		}
	}
}
