package core

import (
	"strings"
	"testing"

	"repro/internal/faults"
)

// TestChaosSweepDeterminism is the (seed × schedule) determinism matrix: a
// chaos run's digest must be a pure function of the pair. Each point builds
// the healthy world with the schedule injected, runs it to its convergence
// deadline, and the whole matrix is evaluated twice through Sweep — so the
// replays also race against each other across worker goroutines, which
// catches any cross-world shared state in the fault engine.
func TestChaosSweepDeterminism(t *testing.T) {
	type point struct {
		seed     uint64
		schedule string
	}
	var pts []point
	for _, seed := range []uint64{1, 7, 42} {
		for _, schedule := range []string{"deauth-storm", "ap-restart", "burst-loss"} {
			pts = append(pts, point{seed, schedule})
		}
	}
	type result struct {
		digest    uint64
		converged bool
	}
	run := func(p point) result {
		o, err := RunScenarioOpts("healthy", p.seed, ScenarioOpts{Checks: true, Faults: p.schedule})
		if err != nil {
			t.Errorf("seed %d schedule %q: %v", p.seed, p.schedule, err)
			return result{}
		}
		return result{digest: o.Digest, converged: o.Converged}
	}
	first := Sweep(pts, run)
	second := Sweep(pts, run)
	seen := make(map[uint64][]point)
	for i, p := range pts {
		if first[i].digest != second[i].digest {
			t.Errorf("seed %d schedule %q: digest diverged across replays: %016x != %016x",
				p.seed, p.schedule, first[i].digest, second[i].digest)
		}
		if first[i].digest == 0 {
			t.Errorf("seed %d schedule %q: zero digest", p.seed, p.schedule)
		}
		if !first[i].converged {
			t.Errorf("seed %d schedule %q: did not converge", p.seed, p.schedule)
		}
		seen[first[i].digest] = append(seen[first[i].digest], p)
	}
	// Different (seed, schedule) points must not collide: the digest has to
	// actually depend on both inputs.
	for d, ps := range seen {
		if len(ps) > 1 {
			t.Errorf("digest %016x shared by %d points: %v", d, len(ps), ps)
		}
	}
}

// TestWorldFaultsInstalled sanity-checks the Config.Faults plumbing: a named
// builtin resolves, the engine is armed, and a fault-free config leaves the
// world engine-less (so pre-chaos digests are untouched).
func TestWorldFaultsInstalled(t *testing.T) {
	w := NewWorld(Config{Seed: 1, Faults: "mixed"})
	if w.Faults == nil {
		t.Fatal("world built with Faults config has no engine")
	}
	if len(w.Faults.Schedule()) == 0 {
		t.Fatal("engine installed with empty schedule")
	}
	if w.CorpUplink == nil {
		t.Fatal("CorpUplink not retained")
	}
	plain := NewWorld(Config{Seed: 1})
	if plain.Faults != nil {
		t.Fatal("fault-free world grew a chaos engine")
	}
}

// TestWorldFaultsBadScheduleRejected pins the failure mode: an unparseable
// schedule is a construction-time panic, not a silent no-op.
func TestWorldFaultsBadScheduleRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad schedule did not panic")
		}
	}()
	NewWorld(Config{Seed: 1, Faults: "explode@-1s"})
}

// TestBuiltinsWorkAgainstFullWorld runs every builtin schedule against the
// fully assembled world (VPN included, so the partition fault has targets)
// and requires convergence — no builtin may strand the network. Builtins
// that target overlay relays run against the mesh scenario, the only one
// with those hosts.
func TestBuiltinsWorkAgainstFullWorld(t *testing.T) {
	for _, name := range faults.BuiltinNames() {
		scenario := "vpn"
		if name == "relay-drop" {
			scenario = "mesh"
		}
		o, err := RunScenarioOpts(scenario, 1, ScenarioOpts{Checks: true, Faults: name})
		if err != nil {
			t.Fatalf("builtin %q: %v", name, err)
		}
		if !o.Converged {
			t.Errorf("builtin %q: %s scenario did not converge", name, scenario)
		}
	}
}

// TestScheduleTargetMismatchIsAnError pins that a valid schedule naming a
// target the scenario's world lacks comes back from RunScenarioOpts as the
// engine's Install error, with no outcome and no panic: a campus has no
// wired uplink for corrupt, and only the mesh worlds have relay hosts.
func TestScheduleTargetMismatchIsAnError(t *testing.T) {
	for _, c := range []struct{ scenario, faults, want string }{
		{"campus", "mixed", "UplinkPorts"},
		{"campus-rogue", "mixed", "UplinkPorts"},
		{"campus", "relay-drop", `unknown host "relay1"`},
		{"vpn", "relay-drop", `unknown host "relay1"`},
		{"detect", "relay-drop", `unknown host "relay1"`},
		{"chaos-apcrash", "relay-drop", `unknown host "relay1"`},
		{"healthy", "partition@5s+1s(host=nosuch)", `unknown host "nosuch"`},
	} {
		o, err := RunScenarioOpts(c.scenario, 1, ScenarioOpts{Faults: c.faults})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s + %s: err = %v, want one mentioning %s", c.scenario, c.faults, err, c.want)
		}
		if o != nil {
			t.Errorf("%s + %s: got an outcome alongside the error", c.scenario, c.faults)
		}
	}
}
