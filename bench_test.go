package repro

// One benchmark per reproduced experiment (DESIGN.md E1–E12). Each iteration
// regenerates the experiment's table at a small scale and sanity-checks its
// headline cell, so `go test -bench=.` both times the simulation and
// re-verifies the paper's qualitative results.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
)

// benchScale keeps iterations fast; cmd/experiments runs the full scale.
var benchScale = experiments.Scale{Trials: 2, Quick: true}

func benchTable(b *testing.B, fn func(experiments.Scale) experiments.Table, check func(t experiments.Table) bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl := fn(benchScale)
		if check != nil && !check(tbl) {
			b.Fatalf("%s: headline result did not reproduce:\n%s", tbl.ID, tbl.String())
		}
	}
}

// BenchmarkE1AssociationCapture — Figure 1's capture mechanics: the nearby
// rogue must win the victim's association every time.
func BenchmarkE1AssociationCapture(b *testing.B) {
	benchTable(b, experiments.E1AssociationCapture, func(t experiments.Table) bool {
		return t.Rows[0][2] == "100%" && t.Rows[len(t.Rows)-1][2] == "0%"
	})
}

// BenchmarkE2DownloadMITM — Figure 2's download attack: compromise across
// open, WEP, and WEP+MAC-filter configurations.
func BenchmarkE2DownloadMITM(b *testing.B) {
	benchTable(b, experiments.E2DownloadMITM, func(t experiments.Table) bool {
		for _, r := range t.Rows {
			if r[1] != "100%" {
				return false
			}
		}
		return true
	})
}

// BenchmarkE2bBoundary — §4.2's netsed packet-boundary limitation and the
// streaming fix.
func BenchmarkE2bBoundary(b *testing.B) {
	benchTable(b, experiments.E2bBoundary, func(t experiments.Table) bool {
		miss := false
		for _, r := range t.Rows {
			if r[1] == "MISSED" {
				miss = true
			}
			if r[2] != "yes" {
				return false
			}
		}
		return miss
	})
}

// BenchmarkE2cContentInjection — §5.1: script injection into a trusted page.
func BenchmarkE2cContentInjection(b *testing.B) {
	benchTable(b, experiments.E2cContentInjection, func(t experiments.Table) bool {
		return t.Rows[0][2] == "100%" && t.Rows[1][2] == "0%"
	})
}

// BenchmarkE3VPNDefense — Figure 3: full tunnel clean, split tunnel still
// compromised.
func BenchmarkE3VPNDefense(b *testing.B) {
	benchTable(b, experiments.E3VPNDefense, func(t experiments.Table) bool {
		return t.Rows[0][1] == "100%" && t.Rows[1][2] == "100%" &&
			t.Rows[2][3] != "0" && t.Rows[3][1] == "100%"
	})
}

// BenchmarkE4FMSCrack — Airsnort's key recovery and the weak-IV-avoidance
// ablation.
func BenchmarkE4FMSCrack(b *testing.B) {
	benchTable(b, experiments.E4FMSCrack, func(t experiments.Table) bool {
		return t.Rows[0][4] == "yes" && t.Rows[len(t.Rows)-1][4] == "MISSED"
	})
}

// BenchmarkE5MACFilterBypass — §2.1: ACLs stop unlisted MACs, not cloned
// ones.
func BenchmarkE5MACFilterBypass(b *testing.B) {
	benchTable(b, experiments.E5MACFilterBypass, func(t experiments.Table) bool {
		return t.Rows[0][1] == "0%" && t.Rows[1][1] == "100%"
	})
}

// BenchmarkE6TCPoverTCP — §5.3: the TCP-in-TCP carrier pathology under
// wireless loss.
func BenchmarkE6TCPoverTCP(b *testing.B) {
	benchTable(b, experiments.E6TCPoverTCP, nil)
}

// BenchmarkE7Detection — §2.3: monitoring-based rogue detection.
func BenchmarkE7Detection(b *testing.B) {
	benchTable(b, experiments.E7Detection, func(t experiments.Table) bool {
		return t.Rows[0][2] != "0%" // cloned rogue detected
	})
}

// BenchmarkE8Eavesdrop — §1.1: wireless broadcast vs switched-wire
// visibility.
func BenchmarkE8Eavesdrop(b *testing.B) {
	benchTable(b, experiments.E8Eavesdrop, func(t experiments.Table) bool {
		return t.Rows[0][2] == "yes" && t.Rows[1][2] != "yes" &&
			t.Rows[2][2] != "yes" && t.Rows[3][2] == "yes"
	})
}

// BenchmarkE9Overhead — the defense's cost on a healthy network.
func BenchmarkE9Overhead(b *testing.B) {
	benchTable(b, experiments.E9Overhead, func(t experiments.Table) bool {
		for _, r := range t.Rows {
			if strings.Contains(r[1], "failed") {
				return false
			}
		}
		return true
	})
}

// BenchmarkE2dHostileHotspot — §1.2.2: the operator-is-the-attacker class.
func BenchmarkE2dHostileHotspot(b *testing.B) {
	benchTable(b, experiments.E2dHostileHotspot, func(t experiments.Table) bool {
		return t.Rows[1][2] == "100%" && t.Rows[2][1] == "100%"
	})
}

// BenchmarkE10DeauthStorm — the deauth storm is survivable without a rogue
// and sticky with one.
func BenchmarkE10DeauthStorm(b *testing.B) {
	benchTable(b, experiments.E10DeauthStorm, func(t experiments.Table) bool {
		return t.Rows[1][2] == "100%" && t.Rows[1][3] == "0%" && t.Rows[3][3] == "100%"
	})
}

// BenchmarkE11APOutage — the tunnel survives an AP reboot on every carrier.
func BenchmarkE11APOutage(b *testing.B) {
	benchTable(b, experiments.E11APOutage, func(t experiments.Table) bool {
		for _, r := range t.Rows {
			if r[2] != "100%" {
				return false
			}
		}
		return true
	})
}

// BenchmarkChaosDigestMatrix times the (seed × schedule) chaos matrix and
// asserts its determinism contract on every iteration: each point must
// converge with invariant checks enabled and replay to the exact digest of a
// baseline run taken before timing starts. CI runs this at -benchtime 1x, so
// any change that shifts a chaos digest — e.g. reintroducing one of the
// map-iteration-order bugs simvet guards against — fails the benchmark, not
// just the slower sweep tests.
func BenchmarkChaosDigestMatrix(b *testing.B) {
	seeds := []uint64{1, 7, 42}
	schedules := []string{"deauth-storm", "ap-restart", "burst-loss"}
	runPoint := func(seed uint64, schedule string) uint64 {
		b.Helper()
		o, err := core.RunScenarioOpts("healthy", seed, core.ScenarioOpts{Checks: true, Faults: schedule})
		if err != nil {
			b.Fatalf("seed %d schedule %q: %v", seed, schedule, err)
		}
		if !o.Converged {
			b.Fatalf("seed %d schedule %q: did not converge", seed, schedule)
		}
		if o.Digest == 0 {
			b.Fatalf("seed %d schedule %q: zero digest", seed, schedule)
		}
		return o.Digest
	}
	baseline := make(map[string]uint64)
	for _, seed := range seeds {
		for _, schedule := range schedules {
			baseline[fmt.Sprintf("%d/%s", seed, schedule)] = runPoint(seed, schedule)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, seed := range seeds {
			for _, schedule := range schedules {
				key := fmt.Sprintf("%d/%s", seed, schedule)
				if got := runPoint(seed, schedule); got != baseline[key] {
					b.Fatalf("seed %d schedule %q: digest diverged from baseline: %016x != %016x",
						seed, schedule, got, baseline[key])
				}
			}
		}
	}
}

// BenchmarkE12BurstLoss — downloads complete through bursty air.
func BenchmarkE12BurstLoss(b *testing.B) {
	benchTable(b, experiments.E12BurstLoss, func(t experiments.Table) bool {
		return t.Rows[0][1] == "100%" && t.Rows[1][1] == "100%"
	})
}

// BenchmarkE13FirstHopRogue — the hostile first hop on the mesh is caught
// end to end while the per-hop links stay blind, and the download survives.
func BenchmarkE13FirstHopRogue(b *testing.B) {
	benchTable(b, experiments.E13FirstHopRogue, func(t experiments.Table) bool {
		return t.Rows[1][1] == "100%" && t.Rows[1][2] != "0.0" && t.Rows[1][3] == "0.0"
	})
}

// BenchmarkE14RelayChainChaos — the mesh tunnel recovers from every chaos
// schedule, rekeying into the same session across relay failover.
func BenchmarkE14RelayChainChaos(b *testing.B) {
	benchTable(b, experiments.E14RelayChainChaos, func(t experiments.Table) bool {
		for _, r := range t.Rows {
			if r[1] != "100%" || r[2] != "100%" {
				return false
			}
		}
		return true
	})
}

// BenchmarkE15CampusScale — campus-scale rogue capture on the sharded
// medium: full association at every size, with the rogue's catch bounded by
// its one interference neighborhood.
func BenchmarkE15CampusScale(b *testing.B) {
	benchTable(b, experiments.E15CampusScale, func(t experiments.Table) bool {
		return len(t.Rows) == 2 && t.Rows[0][2] == "100%" && t.Rows[1][2] == "100%"
	})
}

// BenchmarkCampusWorld — raw campus throughput: build a 64-AP/1024-station
// world (rogue included) and run two simulated seconds of join/scan/traffic,
// reporting kernel events per wall-clock second.
func BenchmarkCampusWorld(b *testing.B) {
	var events uint64
	for i := 0; i < b.N; i++ {
		w := core.NewCampusWorld(core.CampusConfig{
			Seed:  1,
			Rogue: true,
			Topology: core.TopologyConfig{
				Kind: core.TopoCampus, Seed: 1, APs: 64, STAs: 1024,
			},
		})
		events += w.Kernel.RunFor(2 * sim.Second)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(b.N)*2/b.Elapsed().Seconds(), "simsec/wallsec")
}
