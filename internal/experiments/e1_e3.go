package experiments

import (
	"fmt"
	"math"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/inet"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/wep"
)

// E1AssociationCapture (Figure 1): how reliably does the rogue win the
// victim's association as a function of its signal advantage, and does
// deauth forcing capture a client already attached to the real AP?
func E1AssociationCapture(s Scale) Table {
	t := Table{
		ID:    "E1",
		Title: "Rogue AP association capture vs signal advantage (Fig. 1)",
		Columns: []string{"rogue dist to victim (m)", "signal advantage (dB)",
			"passive capture", "deauth-forced capture"},
		Notes: []string{
			"victim 40 m from the real AP; rogue clones SSID+BSSID+WEP key on channel 6",
			"passive: victim scans fresh; forced: victim starts on the real AP, attacker deauth-floods",
		},
	}
	key := wep.Key40FromString("SECRET")
	// One flat sweep over every (distance, trial, forced?) world: rows are
	// assembled afterwards by slicing the in-order result vector, so the
	// table is byte-identical however many workers the sweep fans out to.
	dists := []float64{2, 5, 10, 20, 40, 80}
	type point struct {
		dist   float64
		seed   uint64
		forced bool
	}
	var points []point
	for _, d := range dists {
		for _, seed := range core.Seeds(uint64(d*1000), s.trials()) {
			points = append(points, point{d, seed, false}, point{d, seed, true})
		}
	}
	results := core.Sweep(points, func(p point) [2]bool {
		cfg := core.Config{
			Seed: p.seed, WEPKey: key,
			Rogue: true, RogueCloneBSSID: true, RoguePureRelay: true,
			APPos:     phy.Position{X: 0, Y: 0},
			VictimPos: phy.Position{X: 40, Y: 0},
			RoguePos:  phy.Position{X: 40 + p.dist, Y: 0},
		}
		w := core.NewWorld(cfg)
		if !p.forced {
			w.VictimConnect()
			w.Run(10 * sim.Second)
			return [2]bool{w.VictimOnRogue(), false}
		}
		// Forced: let the victim settle on whatever it picks first;
		// if that is the real AP, deauth-flood it off.
		w.VictimConnect()
		w.Run(10 * sim.Second)
		if w.VictimOnRogue() {
			return [2]bool{false, true} // captured without forcing
		}
		deauth := attack.NewDeauther(w.Kernel, w.Medium, cfg.RoguePos, core.CorpChannel)
		deauth.Flood(core.VictimMAC, core.CorpBSSID, 100*sim.Millisecond)
		w.Run(15 * sim.Second)
		deauth.Stop()
		return [2]bool{false, w.VictimOnRogue()}
	})
	i := 0
	for _, d := range dists {
		var passive, forced []bool
		for n := 0; n < s.trials(); n++ {
			passive = append(passive, results[i][0])
			forced = append(forced, results[i+1][1])
			i += 2
		}
		adv := signalAdvantageDB(40, d)
		t.AddRow(d, fmt.Sprintf("%+.1f", adv), pct(core.Fraction(passive)), pct(core.Fraction(forced)))
	}
	return t
}

// signalAdvantageDB is the rogue-vs-real RSSI difference at the victim with
// the default propagation model (exponent 3).
func signalAdvantageDB(realDist, rogueDist float64) float64 {
	pl := func(d float64) float64 {
		if d < 1 {
			d = 1
		}
		return 40 + 30*math.Log10(d)
	}
	return pl(realDist) - pl(rogueDist)
}

// E2DownloadMITM (Figure 2): the software-download attack end to end under
// the paper's configurations. The headline cell: with WEP and MAC filtering
// on, the victim still downloads a trojan whose forged MD5 verifies.
func E2DownloadMITM(s Scale) Table {
	t := Table{
		ID:    "E2",
		Title: "Software-download MITM success (Fig. 2)",
		Columns: []string{"network config", "victim compromised",
			"md5 check passed", "link redirected"},
		Notes: []string{
			"compromised = tampered body AND the page's md5 verification passes",
			"the naive attack reveals the redirect (paper §4.2) — LinkRedirected is 100% by design",
		},
	}
	type scenario struct {
		name      string
		key       wep.Key
		macFilter bool
	}
	scenarios := []scenario{
		{"open network", nil, false},
		{"WEP (key known to attacker)", wep.Key40FromString("SECRET"), false},
		{"WEP + MAC filter (cloned MAC)", wep.Key40FromString("SECRET"), true},
	}
	// All scenarios' trials fan out through one sweep; rows are cut from the
	// in-order results afterwards.
	type point struct {
		sc   scenario
		seed uint64
	}
	var points []point
	for _, sc := range scenarios {
		for _, seed := range core.Seeds(2, s.trials()) {
			points = append(points, point{sc, seed})
		}
	}
	results := core.Sweep(points, func(p point) core.DownloadResult {
		cfg := core.Config{
			Seed: p.seed, WEPKey: p.sc.key,
			MACFilter: p.sc.macFilter,
			Rogue:     true, RogueCloneBSSID: true,
			APPos:     phy.Position{X: 0, Y: 0},
			VictimPos: phy.Position{X: 40, Y: 0},
			RoguePos:  phy.Position{X: 42, Y: 0},
		}
		if p.sc.macFilter {
			cfg.RogueStationMAC = core.VictimMAC // harvested+cloned
		}
		w := core.NewWorld(cfg)
		w.VictimConnect()
		w.Run(10 * sim.Second)
		var res core.DownloadResult
		w.VictimDownload(func(r core.DownloadResult) { res = r })
		w.Run(60 * sim.Second)
		return res
	})
	for i, sc := range scenarios {
		var comp, md5ok, redir []bool
		for _, r := range results[i*s.trials() : (i+1)*s.trials()] {
			comp = append(comp, r.Compromised())
			md5ok = append(md5ok, r.Err == nil && r.MD5OK)
			redir = append(redir, r.Err == nil && r.LinkRedirected)
		}
		t.AddRow(sc.name, pct(core.Fraction(comp)), pct(core.Fraction(md5ok)), pct(core.Fraction(redir)))
	}
	return t
}

// E3VPNDefense (Figure 3): the same attack with the victim's traffic
// tunnelled. Full tunnel defeats the MITM; split tunnel does not.
func E3VPNDefense(s Scale) Table {
	t := Table{
		ID:    "E3",
		Title: "VPN-everything defense vs the MITM (Fig. 3)",
		Columns: []string{"victim policy", "victim compromised", "download clean",
			"tunnel tamper detections"},
		Notes: []string{
			"split tunnel covers only 172.16/12 — web traffic rides the hostile segment in the clear (§5.2 req. 4)",
		},
	}
	type policy struct {
		name   string
		vpn    bool
		split  []inet.Prefix
		tamper bool // the rogue actively flips bits in relayed tunnel records
	}
	policies := []policy{
		{name: "no VPN"},
		{name: "full VPN (all traffic)", vpn: true},
		{name: "full VPN + rogue flips tunnel bits", vpn: true, tamper: true},
		{name: "split tunnel (corp prefixes only)", vpn: true,
			split: []inet.Prefix{inet.MustParsePrefix("172.16.0.0/12")}},
	}
	type out struct {
		res    core.DownloadResult
		tamper uint64
	}
	type point struct {
		pol  policy
		seed uint64
	}
	var points []point
	for _, p := range policies {
		for _, seed := range core.Seeds(3, s.trials()) {
			points = append(points, point{p, seed})
		}
	}
	results := core.Sweep(points, func(pt point) out {
		p := pt.pol
		cfg := core.Config{
			Seed: pt.seed, WEPKey: wep.Key40FromString("SECRET"),
			Rogue: true, RogueCloneBSSID: true,
			VPNServer: true,
			APPos:     phy.Position{X: 0, Y: 0},
			VictimPos: phy.Position{X: 40, Y: 0},
			RoguePos:  phy.Position{X: 42, Y: 0},
		}
		w := core.NewWorld(cfg)
		w.VictimConnect()
		w.Run(10 * sim.Second)
		if p.vpn {
			up := false
			w.EnableVictimVPN(p.split, func(err error) { up = err == nil })
			w.Run(20 * sim.Second)
			if !up {
				return out{res: core.DownloadResult{Err: fmt.Errorf("vpn never up")}}
			}
		}
		if p.tamper {
			// The rogue can't read the tunnel, so it tries blind bit
			// flips on relayed carrier packets (fixing the transport
			// checksum so the flips reach the VPN layer).
			w.Rogue.IP.AddHook(&tamperHook{every: 3})
		}
		var res core.DownloadResult
		w.VictimDownload(func(r core.DownloadResult) { res = r })
		w.Run(60 * sim.Second)
		var tamper uint64
		if w.VictimVPN != nil {
			tamper = w.VictimVPN.TamperDetected()
		}
		if w.VPNServer != nil {
			tamper += w.VPNServer.TamperDetected()
		}
		return out{res: res, tamper: tamper}
	})
	for i, p := range policies {
		var comp, clean []bool
		var tampers uint64
		for _, r := range results[i*s.trials() : (i+1)*s.trials()] {
			comp = append(comp, r.res.Compromised())
			clean = append(clean, r.res.Clean())
			tampers += r.tamper
		}
		t.AddRow(p.name, pct(core.Fraction(comp)), pct(core.Fraction(clean)), tampers)
	}
	return t
}
