package core

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/wep"
)

// This file defines the named end-to-end scenarios that cmd/roguesim runs
// and the determinism harness (internal/check) replays. Keeping them here —
// rather than inline in main() — means the binary and the tests execute the
// exact same event sequence, so a digest mismatch in tests is a real
// regression in what the demo does.

// Milestone is one timestamped line of scenario narrative.
type Milestone struct {
	At  sim.Time
	Msg string
}

// ScenarioOutcome is everything a scenario run produced. Which fields are
// meaningful depends on the scenario: Download for healthy/attack/vpn, the
// detector fields for detect.
type ScenarioOutcome struct {
	Name  string
	World *World
	// Digest is the kernel's trace digest at the end of the run — the value
	// check.AssertDeterministic compares across replays.
	Digest     uint64
	Milestones []Milestone

	// Download scenarios.
	Download DownloadResult
	VPNUp    bool
	VPNErr   error

	// Chaos scenarios: whether the world returned to steady state within
	// the bounded grace period after the last fault cleared.
	Converged bool

	// Detect scenario.
	Alerts     []detect.Alert
	FramesSeen uint64

	// Campus scenarios: the generated world (World is nil for these) and
	// its end-of-run observables.
	Campus       *CampusWorld
	CampusResult CampusResult
}

// ScenarioNames lists every runnable scenario, in a fixed order.
func ScenarioNames() []string {
	return []string{
		"healthy", "attack", "vpn", "mesh", "detect",
		"chaos-deauth", "chaos-apcrash", "chaos-burst", "chaos-relay",
		"campus", "campus-rogue",
	}
}

// scenarioConfig builds the world configuration for a named single-victim
// scenario.
func scenarioConfig(name string, seed uint64) (Config, error) {
	cfg := Config{Seed: seed}
	switch name {
	case "healthy":
	case "attack":
		cfg.WEPKey = wep.Key40FromString("SECRET")
		cfg.Rogue = true
		cfg.RogueCloneBSSID = true
		rogueGeometry(&cfg)
	case "vpn":
		cfg.WEPKey = wep.Key40FromString("SECRET")
		cfg.Rogue = true
		cfg.RogueCloneBSSID = true
		cfg.VPNServer = true
		rogueGeometry(&cfg)
	case "mesh":
		// The defended download rides the multi-hop overlay: the victim's
		// tunnel reaches the trusted endpoint through a relay chain instead
		// of a point-to-point carrier, with the rogue herding the victim
		// exactly as in the vpn scenario.
		cfg.WEPKey = wep.Key40FromString("SECRET")
		cfg.Rogue = true
		cfg.RogueCloneBSSID = true
		cfg.Overlay = true
		cfg.VPNKeepalive = 2 * sim.Second
		rogueGeometry(&cfg)
	case "detect":
		cfg.Rogue = true
		cfg.RogueCloneBSSID = true
		cfg.RoguePureRelay = true
		rogueGeometry(&cfg)
	case "chaos-deauth":
		// A forged-deauth storm lands during the association window; the
		// client must ride it out on the reconnect backoff ladder.
		cfg.Faults = "deauth-storm"
	case "chaos-apcrash":
		// The real AP reboots while the VPN tunnel is carrying a download.
		// Keepalives are on so the tunnel notices if its peer truly dies;
		// a 3 s outage is inside the DPD budget, so the session survives.
		cfg.VPNServer = true
		cfg.VPNKeepalive = 2 * sim.Second
		cfg.Faults = "ap-restart"
	case "chaos-burst":
		// A long Gilbert–Elliott bad-air window chews on the download.
		cfg.Faults = "burst-loss"
	case "chaos-relay":
		// The overlay's first-hop relay is partitioned mid-download: the
		// mesh withdraws its routes, the tunnel's DPD fires, and the chain
		// is rebuilt through the surviving relay — rekeyed, same tunnel IP.
		cfg.Overlay = true
		cfg.VPNKeepalive = 2 * sim.Second
		cfg.Faults = "relay-drop"
	default:
		return Config{}, fmt.Errorf("core: unknown scenario %q", name)
	}
	return cfg, nil
}

// rogueGeometry is the demo placement: victim at the coverage edge of the
// real AP, rogue right next to the victim (paper §4's "stronger signal").
func rogueGeometry(cfg *Config) {
	cfg.APPos = phy.Position{X: 0, Y: 0}
	cfg.VictimPos = phy.Position{X: 40, Y: 0}
	cfg.RoguePos = phy.Position{X: 42, Y: 0}
}

// ScenarioOpts bundles RunScenarioOpts' optional knobs.
type ScenarioOpts struct {
	// Checks enables kernel invariant checking (violations panic).
	Checks bool
	// Faults, when non-empty, is a fault schedule (builtin name or raw
	// string) overriding whatever the scenario configures itself.
	Faults string
}

// RunScenarioOpts executes a named scenario to completion. It is the one
// scenario runner: tests, cmd/roguesim and the benchmark all call it.
func RunScenarioOpts(name string, seed uint64, opts ScenarioOpts) (*ScenarioOutcome, error) {
	if name == "campus" || name == "campus-rogue" {
		// Campus scenarios build a generated world, not the single-victim
		// Config world, so they dispatch before scenarioConfig.
		return runCampusScenario(name, seed, opts)
	}
	cfg, err := scenarioConfig(name, seed)
	if err != nil {
		return nil, err
	}
	cfg.Checks = opts.Checks
	if opts.Faults != "" {
		cfg.Faults = opts.Faults
	}
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	if name == "detect" {
		return runDetectScenario(name, w), nil
	}
	return runDownloadScenario(name, w), nil
}

// convergenceGrace is the bounded window a chaos scenario gets to self-heal
// after its LAST fault clears. The convergence claim is checked exactly once
// at this deadline — no polling, no "eventually".
const convergenceGrace = 30 * sim.Second

// settleFaults is every runner's recovery contract: it runs the kernel to
// the fixed deadline after the last fault clears and reports whether the
// fault engine is quiescent there. Each runner ANDs in its own steady-state
// check.
func settleFaults(k *sim.Kernel, eng *faults.Engine) bool {
	if deadline := eng.LastEnd() + convergenceGrace; deadline > k.Now() {
		k.RunUntil(deadline)
	}
	return eng.Quiescent()
}

func (o *ScenarioOutcome) milestonef(format string, args ...any) {
	var at sim.Time
	switch {
	case o.World != nil:
		at = o.World.Kernel.Now()
	case o.Campus != nil:
		at = o.Campus.Kernel.Now()
	}
	o.Milestones = append(o.Milestones, Milestone{
		At:  at,
		Msg: fmt.Sprintf(format, args...),
	})
}

func runDownloadScenario(name string, w *World) *ScenarioOutcome {
	o := &ScenarioOutcome{Name: name, World: w}

	w.VictimConnect()
	w.Run(10 * sim.Second)
	o.milestonef("victim associated: %v (channel %d)", w.VictimAssociated(), w.Victim.STA.BSS().Channel)
	if w.Cfg.Rogue {
		o.milestonef("victim is on the ROGUE AP: %v; rogue uplink to CORP: %v",
			w.VictimOnRogue(), w.Rogue.UplinkUp)
	}
	if w.Cfg.VPNServer {
		w.EnableVictimVPN(nil, func(err error) {
			if err != nil {
				o.VPNErr = err
				return
			}
			o.VPNUp = true
		})
		w.Run(20 * sim.Second)
		if o.VPNUp {
			o.milestonef("VPN tunnel up: true (tunnel IP %v)", w.VictimVPN.TunnelIP())
		} else {
			o.milestonef("VPN tunnel up: false (err %v)", o.VPNErr)
		}
		if w.Cfg.Overlay {
			o.milestonef("overlay: client links up %d, route to exit: %q",
				w.OverlayClient.LinksUp(), w.OverlayClient.RouteDump())
		}
	}

	w.VictimDownload(func(r DownloadResult) { o.Download = r })
	w.Run(60 * sim.Second)

	if w.Faults != nil {
		o.Converged = settleFaults(w.Kernel, w.Faults) && w.VictimAssociated() &&
			(!w.Cfg.VPNServer || (w.VictimVPN != nil && w.VictimVPN.Up()))
		o.milestonef("chaos converged: %v (faults applied %d, reverted %d)",
			o.Converged, w.Faults.Applied, w.Faults.Reverted)
		if w.Cfg.Overlay && w.VictimVPN != nil {
			o.milestonef("overlay healing: link reconnects %d, tunnel peer timeouts %d, rekeys %d",
				w.OverlayClient.LinkReconnects(), w.VictimVPN.PeerTimeouts, w.VictimVPN.Rekeys)
		}
	}
	o.Digest = w.Kernel.Digest()
	return o
}

func runDetectScenario(name string, w *World) *ScenarioOutcome {
	o := &ScenarioOutcome{Name: name, World: w}

	mon := w.NewSensor("sensor", phy.Position{X: 20}, 1)
	d := detect.New(w.Kernel)
	d.Attach(mon)
	detect.NewHopper(w.Kernel, mon, 200*sim.Millisecond)
	d.OnAlert = func(a detect.Alert) { o.milestonef("ALERT: %v", a) }

	w.VictimConnect()
	w.Run(60 * sim.Second)
	if w.Faults != nil {
		o.Converged = settleFaults(w.Kernel, w.Faults) && w.VictimAssociated()
		o.milestonef("chaos converged: %v (faults applied %d, reverted %d)",
			o.Converged, w.Faults.Applied, w.Faults.Reverted)
	}
	o.Alerts = d.Alerts
	o.FramesSeen = d.FramesSeen
	o.Digest = w.Kernel.Digest()
	return o
}
