package core

import (
	"fmt"
	"runtime"
	"testing"
)

// overlayDigests pins the overlay scenarios at seeds {1, 7, 42} to the
// digests `roguesim -scenario S -seed N -digest` printed when they were
// recorded. Never regenerated, in the style of preSwapChaosDigests.
var overlayDigests = map[string]uint64{
	"mesh/1":         0x99c0f5f7c0618e22,
	"mesh/7":         0x0bd74809120c4df1,
	"mesh/42":        0x9123e0d39badaab5,
	"chaos-relay/1":  0xb7712258821a9f43,
	"chaos-relay/7":  0x8ea58cf2dd8b2b16,
	"chaos-relay/42": 0xda65f51df23f5395,
}

// TestOverlayScenarioDigestStability is the mesh robustness acceptance
// gate: the overlay scenarios — including chaos-relay's full failover,
// rekey, and route re-convergence — must produce their pinned trace digests
// under every determinism seed, at GOMAXPROCS 1 (Sweep's sequential
// fallback) and 4 (parallel workers), replayed twice at each. A divergence
// here means the mesh machinery leaked nondeterminism (map order on the
// wire, shared state across worlds, unseeded jitter) into the trace.
func TestOverlayScenarioDigestStability(t *testing.T) {
	type point struct {
		scenario string
		seed     uint64
	}
	var pts []point
	for _, scenario := range []string{"mesh", "chaos-relay"} {
		for _, seed := range []uint64{1, 7, 42} {
			pts = append(pts, point{scenario, seed})
		}
	}
	run := func(p point) uint64 {
		o, err := RunScenarioOpts(p.scenario, p.seed, ScenarioOpts{Checks: true})
		if err != nil {
			t.Errorf("%s seed %d: %v", p.scenario, p.seed, err)
			return 0
		}
		if !o.Download.Clean() {
			t.Errorf("%s seed %d: download not clean", p.scenario, p.seed)
		}
		return o.Digest
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var runs [][]uint64
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		runs = append(runs, Sweep(pts, run), Sweep(pts, run))
	}
	for i, p := range pts {
		for r := 1; r < len(runs); r++ {
			if runs[r][i] != runs[0][i] {
				t.Errorf("%s seed %d: digest diverged across replays/procs: %016x != %016x",
					p.scenario, p.seed, runs[r][i], runs[0][i])
			}
		}
		if want := overlayDigests[fmt.Sprintf("%s/%d", p.scenario, p.seed)]; runs[0][i] != want {
			t.Errorf("%s seed %d: digest %016x, pinned %016x", p.scenario, p.seed, runs[0][i], want)
		}
	}
}

// TestChaosRelayFailoverOutcome pins the semantics of the failover, not
// just its digest: the first-hop partition must trip the tunnel's DPD, the
// chain must be rebuilt through the surviving relay (a rekey into the SAME
// origin-keyed session, so the tunnel address survives), and the download
// must still finish clean.
func TestChaosRelayFailoverOutcome(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		o, err := RunScenarioOpts("chaos-relay", seed, ScenarioOpts{Checks: true})
		if err != nil {
			t.Fatal(err)
		}
		w := o.World
		if !o.Converged {
			t.Errorf("seed %d: did not converge", seed)
		}
		if !o.VPNUp || w.VictimVPN == nil || !w.VictimVPN.Up() {
			t.Fatalf("seed %d: tunnel not up at end", seed)
		}
		if !o.Download.Clean() {
			t.Errorf("seed %d: download not clean", seed)
		}
		if w.VictimVPN.PeerTimeouts == 0 {
			t.Errorf("seed %d: the partition never tripped tunnel DPD", seed)
		}
		if w.VictimVPN.Rekeys == 0 {
			t.Errorf("seed %d: failover did not rekey", seed)
		}
		if w.VPNServer.Handshakes < 2 {
			t.Errorf("seed %d: server saw %d handshakes, want the rebuild to re-handshake",
				seed, w.VPNServer.Handshakes)
		}
		if ip := w.VictimVPN.TunnelIP(); ip != w.VPNServer.SessionIPs()[0] {
			t.Errorf("seed %d: tunnel IP %v not retained by the origin-keyed session %v",
				seed, ip, w.VPNServer.SessionIPs())
		}
		// The relay chain healed too: the client's dialed links redialed
		// through the outage and both first hops are up again at the end.
		if got := w.OverlayClient.LinksUp(); got != 2 {
			t.Errorf("seed %d: client links up = %d, want 2", seed, got)
		}
		if w.OverlayClient.LinkReconnects() == 0 {
			t.Errorf("seed %d: no link redials — the partition was invisible?", seed)
		}
	}
}
