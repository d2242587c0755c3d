package experiments

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// E2dHostileHotspot (§1.2.2): the paper's second deployment class. No rogue
// hardware, nothing anomalous on the air — the hotspot operator IS the
// attacker, so AP-side defenses and rogue detection are definitionally
// useless, and only the client-side VPN policy survives.
func E2dHostileHotspot(s Scale) Table {
	t := Table{
		ID:    "E2d",
		Title: "Hostile hotspot (§1.2.2): the operator is the attacker",
		Columns: []string{"hotspot / victim policy", "download clean",
			"victim compromised"},
		Notes: []string{
			"the hotspot's gateway runs the same DNAT+netsed MITM as the rogue kit — but it is the legitimate gateway",
			"no rogue AP exists: §2.3's detection techniques have nothing to find",
		},
	}
	type scenario struct {
		name    string
		hostile bool
		vpn     bool
	}
	scenarios := []scenario{
		{"honest hotspot, no VPN", false, false},
		{"hostile hotspot, no VPN", true, false},
		{"hostile hotspot, full VPN home", true, true},
	}
	type point struct {
		sc   scenario
		seed uint64
	}
	var points []point
	for _, sc := range scenarios {
		for _, seed := range core.Seeds(31, s.trials()) {
			points = append(points, point{sc, seed})
		}
	}
	results := core.Sweep(points, func(p point) core.DownloadResult {
		w := core.NewWorld(core.Config{Seed: p.seed, VPNServer: p.sc.vpn})
		if p.sc.hostile {
			w.HijackGateway()
		}
		w.VictimConnect()
		w.Run(10 * sim.Second)
		if p.sc.vpn {
			up := false
			w.EnableVictimVPN(nil, func(err error) { up = err == nil })
			w.Run(20 * sim.Second)
			if !up {
				return core.DownloadResult{Err: errNoTunnel}
			}
		}
		var res core.DownloadResult
		w.VictimDownload(func(r core.DownloadResult) { res = r })
		w.Run(60 * sim.Second)
		return res
	})
	for i, sc := range scenarios {
		var clean, comp []bool
		for _, r := range results[i*s.trials() : (i+1)*s.trials()] {
			clean = append(clean, r.Clean())
			comp = append(comp, r.Compromised())
		}
		t.AddRow(sc.name, pct(core.Fraction(clean)), pct(core.Fraction(comp)))
	}
	return t
}

// errNoTunnel marks a failed tunnel bring-up in sweeps.
var errNoTunnel = errTunnel{}

type errTunnel struct{}

func (errTunnel) Error() string { return "vpn never came up" }
