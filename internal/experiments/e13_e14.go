package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/vpn"
)

// The overlay experiments (E13–E14) evaluate the multi-hop mesh defense:
// the victim's tunnel reaches the trusted endpoint through untrusted relay
// chains instead of a point-to-point carrier. E13 puts the adversary ON the
// chain (the paper's rogue, recast as a hostile first hop); E14 measures
// how the chain heals when chaos removes pieces of it.

// overlayWorld builds the mesh world shared by both experiments: healthy
// air, the victim at a fixed position, relays and exit on the backbone.
func overlayWorld(seed uint64, faultSched string) *core.World {
	return core.NewWorld(core.Config{
		Seed: seed, VictimPos: phyPos(20),
		Overlay:      true,
		VPNKeepalive: 2 * sim.Second,
		Faults:       faultSched,
	})
}

// runOverlayDownload associates, brings the tunnel up over the mesh, runs
// the download, and leaves generous recovery room.
func runOverlayDownload(w *core.World) (up bool, res core.DownloadResult) {
	w.VictimConnect()
	w.Run(10 * sim.Second)
	w.EnableVictimVPN(nil, func(err error) { up = err == nil })
	w.Run(20 * sim.Second)
	if !up {
		return false, res
	}
	w.VictimDownload(func(r core.DownloadResult) { res = r })
	w.Run(90 * sim.Second)
	return up, res
}

// E13FirstHopRogue: the rogue-AP threat model applied to the mesh — the
// client's first-hop relay is the adversary. It forwards everything (the
// overlay cannot tell) but mangles the sealed tunnel records crossing it.
// The per-hop link MACs stay clean, because the tampering happens inside
// the relay, past its own links; only the END-TO-END record MACs catch it.
// And in both configurations the exit learns the client only as an origin
// pseudonym — never its address: relay anonymity is what makes a hostile
// hop survivable at all.
func E13FirstHopRogue(s Scale) Table {
	t := Table{
		ID:    "E13",
		Title: "Hostile first-hop relay on the mesh: e2e detection, per-hop blindness",
		Columns: []string{"first hop", "download clean", "e2e tamper detected",
			"per-hop tamper detected", "records mangled", "exit sees client as"},
		Notes: []string{
			"the hostile relay passes handshakes untouched and flips one bit inside every 3rd sealed tunnel record it forwards",
			"per-hop link MACs cannot see it (the relay re-seals its own links) — only the end-to-end record MACs can",
			"mangled records are dropped at the endpoint; the inner TCP retransmits, so the download still completes clean",
			"sessions are keyed by origin pseudonym: the exit never learns the victim's address, only the previous hop's",
		},
	}
	// Every (configuration, seed) trial is its own world with its own
	// mangle counter, so the trials fan out through one sweep and the rows
	// are assembled afterwards in point order.
	type point struct {
		hostile bool
		seed    uint64
	}
	type out struct {
		clean                bool
		e2e, perHop, mangled float64
		origin               string
	}
	var points []point
	for _, hostile := range []bool{false, true} {
		for _, seed := range core.Seeds(13, s.trials()) {
			points = append(points, point{hostile, seed})
		}
	}
	results := core.Sweep(points, func(p point) out {
		w := overlayWorld(p.seed, "")
		count := 0
		if p.hostile {
			w.OverlayRelay1.MangleForward = func(b []byte) []byte {
				// The relay sees carrier framing (len||type||body) in the
				// clear; a selective attacker leaves the handshake alone and
				// corrupts only sealed records.
				if len(b) > 3 && (b[2] == vpn.MsgData || b[2] == vpn.MsgKeepalive) {
					count++
					if count%3 == 0 {
						b = append([]byte(nil), b...)
						b[len(b)/2] ^= 0x40
					}
				}
				return b
			}
		}
		up, res := runOverlayDownload(w)
		return out{
			clean: up && res.Clean(),
			e2e:   float64(w.VPNServer.TamperDetected() + w.VictimVPN.TamperDetected()),
			perHop: float64(w.OverlayClient.TamperDetected() +
				w.OverlayRelay1.TamperDetected() + w.OverlayRelay2.TamperDetected() +
				w.OverlayExit.TamperDetected()),
			mangled: float64(count / 3),
			origin:  w.OverlayClient.Name(),
		}
	})
	for i, name := range []string{"honest relay", "hostile relay (mangles records)"} {
		var cleans []bool
		var e2e, perHop, mangled []float64
		var origin string
		for _, r := range results[i*s.trials() : (i+1)*s.trials()] {
			cleans = append(cleans, r.clean)
			e2e = append(e2e, r.e2e)
			perHop = append(perHop, r.perHop)
			mangled = append(mangled, r.mangled)
			origin = r.origin
		}
		t.AddRow(name, pct(core.Fraction(cleans)), fmt.Sprintf("%.1f", core.Mean(e2e)),
			fmt.Sprintf("%.1f", core.Mean(perHop)), fmt.Sprintf("%.1f", core.Mean(mangled)),
			fmt.Sprintf("%q", origin))
	}
	return t
}

// E14RelayChainChaos: the mesh tunnel under the chaos schedules — a
// partitioned first hop (route withdrawal + failover to the alternate
// chain), the AP reboot from E11 (now healing across TWO layers: the
// wireless link and every overlay link on it), and the victim's own radio
// flapping. The recovery invariant is always the same: tunnel up at the
// end, download clean, and the rebuilt chain rekeys into the SAME tunnel
// address because the exit keys sessions by origin pseudonym.
func E14RelayChainChaos(s Scale) Table {
	t := Table{
		ID:    "E14",
		Title: "Mesh tunnel recovery under chaos: relay loss, AP reboot, link flaps",
		Columns: []string{"fault", "tunnel up at end", "download clean",
			"mean rekeys", "mean DPD timeouts", "mean link redials"},
		Notes: []string{
			"overlay links probe at 1 s / declare at 3 s; the end-to-end tunnel probes at 2 s / declares at 6 s",
			"relay-drop partitions the preferred first hop for 8 s: routes are withdrawn and the stream carrier is rebuilt through the surviving relay",
			"the rebuilt chain re-handshakes into the same origin-keyed session, so the tunnel address (and inner TCP) survives the failover",
			"link redials count the client node's carrier dials — the healing effort the schedule forced on the mesh",
		},
	}
	scenarios := []struct {
		name   string
		faults string
	}{
		{"none", ""},
		{"relay-drop (first hop gone 8 s)", "relay-drop"},
		{"ap-restart (3 s reboot)", "apcrash@35s+3s"},
		{"ap-restart (20 s outage)", "apcrash@35s+20s"},
		{"link-flap (radio blinks x3)", "linkflap@35s+500ms*3/5s"},
	}
	type out struct {
		up, clean               bool
		rekeys, pdeads, redials float64
	}
	type point struct {
		faults string
		seed   uint64
	}
	var points []point
	for _, sc := range scenarios {
		for _, seed := range core.Seeds(14, s.trials()) {
			points = append(points, point{sc.faults, seed})
		}
	}
	results := core.Sweep(points, func(p point) out {
		w := overlayWorld(p.seed, p.faults)
		up, res := runOverlayDownload(w)
		if !up {
			return out{}
		}
		return out{
			up: w.VictimVPN.Up(), clean: res.Clean(),
			rekeys: float64(w.VictimVPN.Rekeys), pdeads: float64(w.VictimVPN.PeerTimeouts),
			redials: float64(w.OverlayClient.LinkReconnects()),
		}
	})
	for i, sc := range scenarios {
		var ups, cleans []bool
		var rekeys, pdeads, redials []float64
		for _, r := range results[i*s.trials() : (i+1)*s.trials()] {
			ups = append(ups, r.up)
			cleans = append(cleans, r.clean)
			rekeys = append(rekeys, r.rekeys)
			pdeads = append(pdeads, r.pdeads)
			redials = append(redials, r.redials)
		}
		t.AddRow(sc.name, pct(core.Fraction(ups)), pct(core.Fraction(cleans)),
			fmt.Sprintf("%.1f", core.Mean(rekeys)), fmt.Sprintf("%.1f", core.Mean(pdeads)),
			fmt.Sprintf("%.1f", core.Mean(redials)))
	}
	return t
}
