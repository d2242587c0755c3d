package check

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// determinismSeeds are the seeds every scenario is replayed under. Three
// well-spread values; each costs two full scenario runs.
var determinismSeeds = []uint64{1, 7, 42}

// TestScenarioDeterminism replays every named cmd/roguesim scenario twice
// per seed, with invariant checking enabled, and requires identical trace
// digests. This is the repo's determinism guarantee made executable.
func TestScenarioDeterminism(t *testing.T) {
	for _, name := range core.ScenarioNames() {
		t.Run(name, func(t *testing.T) {
			AssertDeterministic(t, func(seed uint64) uint64 {
				o, err := core.RunScenarioOpts(name, seed, core.ScenarioOpts{Checks: true})
				if err != nil {
					t.Fatalf("RunScenarioOpts(%q, %d): %v", name, seed, err)
				}
				return o.Digest
			}, determinismSeeds...)
		})
	}
}

// TestScenarioOutcomesStable pins the semantic outcome of each scenario
// (not just the digest): the attack compromises, the VPN protects, the
// detector alerts. A digest change with an outcome change is a behaviour
// regression, not just trace drift.
func TestScenarioOutcomesStable(t *testing.T) {
	for _, seed := range determinismSeeds {
		attack, err := core.RunScenarioOpts("attack", seed, core.ScenarioOpts{Checks: true})
		if err != nil {
			t.Fatal(err)
		}
		if !attack.Download.Compromised() {
			t.Errorf("seed %d: attack scenario did not compromise the victim", seed)
		}
		vpn, err := core.RunScenarioOpts("vpn", seed, core.ScenarioOpts{Checks: true})
		if err != nil {
			t.Fatal(err)
		}
		if !vpn.VPNUp {
			t.Errorf("seed %d: vpn scenario tunnel did not come up (err %v)", seed, vpn.VPNErr)
		}
		if !vpn.Download.Clean() {
			t.Errorf("seed %d: vpn scenario download was not clean", seed)
		}
		mesh, err := core.RunScenarioOpts("mesh", seed, core.ScenarioOpts{Checks: true})
		if err != nil {
			t.Fatal(err)
		}
		if !mesh.VPNUp {
			t.Errorf("seed %d: mesh scenario tunnel did not come up (err %v)", seed, mesh.VPNErr)
		}
		if !mesh.Download.Clean() {
			t.Errorf("seed %d: mesh scenario download was not clean", seed)
		}
		det, err := core.RunScenarioOpts("detect", seed, core.ScenarioOpts{Checks: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(det.Alerts) == 0 {
			t.Errorf("seed %d: detect scenario raised no alerts", seed)
		}
		healthy, err := core.RunScenarioOpts("healthy", seed, core.ScenarioOpts{Checks: true})
		if err != nil {
			t.Fatal(err)
		}
		if !healthy.Download.Clean() {
			t.Errorf("seed %d: healthy scenario download was not clean", seed)
		}
	}
}

// TestChaosConvergence is the recovery guarantee made executable: every
// chaos scenario, under every determinism seed, must be back in steady state
// by the fixed deadline the scenario checks (last fault end + grace). The
// check is a single bounded-sim-time assertion inside the run — there is no
// "eventually" polling anywhere, so a recovery that merely *usually* happens
// in time fails here.
//
// The detect world rides along under every builtin it has targets for (all
// but relay-drop): the victim must be associated again at the deadline, and
// the sensor must still have flagged the rogue.
func TestChaosConvergence(t *testing.T) {
	type point struct{ scenario, faults string }
	points := []point{{"chaos-deauth", ""}, {"chaos-apcrash", ""}, {"chaos-burst", ""}, {"chaos-relay", ""}}
	for _, sched := range []string{"ap-restart", "burst-loss", "deauth-storm", "link-flap", "mixed"} {
		points = append(points, point{"detect", sched})
	}
	for _, p := range points {
		name := p.scenario
		if p.faults != "" {
			name += "+" + p.faults
		}
		t.Run(name, func(t *testing.T) {
			for _, seed := range determinismSeeds {
				o, err := core.RunScenarioOpts(p.scenario, seed, core.ScenarioOpts{Checks: true, Faults: p.faults})
				if err != nil {
					t.Fatal(err)
				}
				if !o.Converged {
					t.Errorf("seed %d: %s did not converge within the grace window", seed, name)
				}
				if o.Download.Err != nil {
					t.Errorf("seed %d: %s download failed outright: %v", seed, name, o.Download.Err)
				}
				if p.scenario == "detect" && len(o.Alerts) == 0 {
					t.Errorf("seed %d: %s raised no alerts", seed, name)
				}
			}
		})
	}
}

// TestDigestSeedSensitivity checks the digest actually depends on the seed:
// different seeds must (for these scenarios) produce different traces. A
// digest that ignores its inputs would pass AssertDeterministic trivially.
func TestDigestSeedSensitivity(t *testing.T) {
	digests := make(map[uint64]uint64)
	for _, seed := range determinismSeeds {
		o, err := core.RunScenarioOpts("attack", seed, core.ScenarioOpts{Checks: true})
		if err != nil {
			t.Fatal(err)
		}
		digests[seed] = o.Digest
	}
	seen := make(map[uint64]uint64)
	for seed, d := range digests {
		if prev, dup := seen[d]; dup {
			t.Errorf("seeds %d and %d produced identical digests %016x", prev, seed, d)
		}
		seen[d] = seed
	}
}

// TestAssertDeterministicCatchesDivergence makes sure the harness itself
// can fail: a build function with hidden state must be flagged.
func TestAssertDeterministicCatchesDivergence(t *testing.T) {
	var calls uint64
	rec := &recordingTB{TB: t}
	AssertDeterministic(rec, func(seed uint64) uint64 {
		calls++
		return seed + calls // differs between the two runs
	}, 5)
	if !rec.failed {
		t.Fatal("AssertDeterministic accepted a divergent build function")
	}
}

// TestInvariantViolationSurfaces proves registered invariants actually run:
// a kernel with checks enabled and an always-failing invariant must report
// it at the first event boundary.
func TestInvariantViolationSurfaces(t *testing.T) {
	k := sim.NewKernel(1)
	k.SetInvariantChecks(true)
	var got *sim.InvariantViolation
	k.OnViolation = func(v *sim.InvariantViolation) { got = v }
	k.RegisterInvariant("always-fails", func() error {
		return errTest
	})
	k.After(sim.Second, func() {})
	k.RunFor(2 * sim.Second)
	if got == nil {
		t.Fatal("invariant violation was not reported")
	}
	if got.Name != "always-fails" {
		t.Fatalf("violation name = %q, want %q", got.Name, "always-fails")
	}
}

var errTest = errorString("synthetic failure")

type errorString string

func (e errorString) Error() string { return string(e) }

// recordingTB captures Errorf calls without failing the enclosing test.
type recordingTB struct {
	testing.TB
	failed bool
}

func (r *recordingTB) Errorf(string, ...any) { r.failed = true }
func (r *recordingTB) Helper()               {}
