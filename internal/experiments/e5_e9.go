package experiments

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dot11"
	"repro/internal/ethernet"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/vpn"
	"repro/internal/wep"
)

// E5MACFilterBypass (§2.1): MAC ACLs stop an attacker's own MAC but not a
// sniffed-and-cloned one — "keeping honest people honest".
func E5MACFilterBypass(s Scale) Table {
	t := Table{
		ID:      "E5",
		Title:   "MAC filtering bypass via harvested addresses (§2.1)",
		Columns: []string{"attacker MAC", "association success"},
	}
	type point struct {
		seed  uint64
		clone bool
	}
	var points []point
	for _, seed := range core.Seeds(5, s.trials()) {
		points = append(points, point{seed, false}, point{seed, true})
	}
	results := core.Sweep(points, func(p point) bool {
		k := sim.NewKernel(p.seed)
		m := phy.NewMedium(k, phy.Config{})
		victimMAC := core.VictimMAC
		dot11.NewAP(k, m.AddRadio(phy.RadioConfig{Name: "ap", Pos: phyPos(0), Channel: 1}),
			dot11.APConfig{SSID: "CORP", BSSID: core.CorpBSSID, Channel: 1,
				MACAllow: []ethernet.MAC{victimMAC}})
		mac := ethernet.MustParseMAC("02:00:00:00:66:01")
		if p.clone {
			mac = victimMAC
		}
		sta := dot11.NewSTA(k, m.AddRadio(phy.RadioConfig{Name: "atk", Pos: phyPos(10), Channel: 1}),
			dot11.STAConfig{MAC: mac, SSID: "CORP", DisableReconnect: true})
		sta.Connect()
		k.RunUntil(10 * sim.Second)
		return sta.State() == dot11.StateAssociated
	})
	var own, cloned []bool
	for i, p := range points {
		if p.clone {
			cloned = append(cloned, results[i])
		} else {
			own = append(own, results[i])
		}
	}
	t.AddRow("attacker's own (unlisted)", pct(core.Fraction(own)))
	t.AddRow("harvested victim MAC (cloned)", pct(core.Fraction(cloned)))
	return t
}

// E7Detection (§2.3): how fast a monitoring sensor notices the rogue, by
// detection technique, versus the rogue's BSSID strategy.
func E7Detection(s Scale) Table {
	t := Table{
		ID:    "E7",
		Title: "Rogue-AP detection via 802.11 monitoring (§2.3)",
		Columns: []string{"rogue BSSID", "victim traffic", "detected",
			"mean latency (s)", "first alert"},
		Notes: []string{
			"sensor: one channel-hopping rfmon radio (200 ms dwell) running sequence-control and beacon-fingerprint analysis",
			"same-BSSID rogues are caught by interleaved sequence counters and conflicting beacons; distinct-BSSID rogues beacon legitimately and evade these checks",
			"the wired-side aid §2.3 mentions is also implemented: detect.Arpwatch flags the rogue's upstream ARP flip-flops (see its tests)",
		},
	}
	type scenario struct {
		name  string
		clone bool
		busy  bool
	}
	scenarios := []scenario{
		{"cloned (Fig. 1)", true, false},
		{"cloned (Fig. 1)", true, true},
		{"distinct", false, false},
	}
	type out struct {
		detected bool
		latency  float64
		kind     string
	}
	type point struct {
		sc   scenario
		seed uint64
	}
	var points []point
	for _, sc := range scenarios {
		for _, seed := range core.Seeds(7, s.trials()) {
			points = append(points, point{sc, seed})
		}
	}
	results := core.Sweep(points, func(p point) out {
		sc := p.sc
		cfg := core.Config{
			Seed: p.seed, Rogue: true, RogueCloneBSSID: sc.clone, RoguePureRelay: true,
			APPos: phyPos(0), VictimPos: phyPos(40), RoguePos: phyPos(42),
		}
		w := core.NewWorld(cfg)
		monRadio := w.Medium.AddRadio(phy.RadioConfig{Name: "sensor", Pos: phyPos(20), Channel: 1})
		mon := dot11.NewMonitor(monRadio)
		d := detect.New(w.Kernel)
		d.Attach(mon)
		detect.NewHopper(w.Kernel, mon, 200*sim.Millisecond)
		start := w.Kernel.Now()
		w.VictimConnect()
		if sc.busy {
			// Keep the victim downloading through the rogue.
			var loop func()
			loop = func() {
				w.VictimDownload(func(core.DownloadResult) {
					w.Kernel.After(sim.Second, loop)
				})
			}
			w.Kernel.After(12*sim.Second, loop)
		}
		w.Run(60 * sim.Second)
		if len(d.Alerts) == 0 {
			return out{}
		}
		a := d.Alerts[0]
		return out{detected: true, latency: (a.At - start).Seconds(), kind: a.Kind.String()}
	})
	for i, sc := range scenarios {
		var det []bool
		var lats []float64
		kind := "-"
		for _, r := range results[i*s.trials() : (i+1)*s.trials()] {
			det = append(det, r.detected)
			if r.detected {
				lats = append(lats, r.latency)
				kind = r.kind
			}
		}
		traffic := "idle"
		if sc.busy {
			traffic = "downloading"
		}
		lat := "-"
		if len(lats) > 0 {
			lat = fmt.Sprintf("%.1f", core.Mean(lats))
		}
		t.AddRow(sc.name, traffic, pct(core.Fraction(det)), lat, kind)
	}
	return t
}

// E8Eavesdrop (§1.1): the eavesdropping asymmetry. A wireless sniffer in
// range sees the victim's web traffic; a sniffer on a switched wired port
// sees none of it; a shared hub (the pre-switch worst case) leaks it all.
func E8Eavesdrop(s Scale) Table {
	t := Table{
		ID:    "E8",
		Title: "Eavesdropping: wireless broadcast vs switched wire (§1.1)",
		Columns: []string{"sniffer location", "victim frames/bytes captured",
			"downloaded file recoverable from capture"},
		Notes: []string{
			"victim fetches the download page+file over the real AP; sniffers are passive",
			"wired sniffer sits on its own switch port in promiscuous mode — the switch simply never sends it the flow",
			"a hub-based wired LAN would leak like the wireless side (see ethernet.Hub tests)",
		},
	}
	secret := []byte("EAVESDROP-ME :: this file body is the sniffer's target\n")
	recovered := func(capture []byte) string {
		return yes(bytes.Contains(capture, secret))
	}
	// The open-cell and WEP-cell captures are independent worlds, so both run
	// through one sweep; each job returns its finished rows (plus any warning
	// note), spliced back in point order.
	type capture struct {
		rows  [][]string
		notes []string
	}
	results := core.Sweep([]bool{false, true}, func(wepCell bool) capture {
		if !wepCell {
			cfg := core.Config{Seed: 11, APPos: phyPos(0), VictimPos: phyPos(20), FileContents: secret}
			w := core.NewWorld(cfg)

			// Wireless sniffer near the AP: it records every data payload it hears.
			monRadio := w.Medium.AddRadio(phy.RadioConfig{Name: "sniffer", Pos: phyPos(10), Channel: 1})
			mon := dot11.NewMonitor(monRadio)
			var airCapture []byte
			var airFrames uint64
			mon.OnFrame = func(f dot11.Frame, info phy.RxInfo) {
				if f.Type == dot11.TypeData && (f.Addr2 == core.VictimMAC || f.Addr1 == core.VictimMAC) {
					airFrames++
					airCapture = append(airCapture, f.Body...)
				}
			}
			// Wired sniffer on its own corp-switch port.
			wiredPort := w.CorpSwitch.Attach(w.Alloc.Next())
			wiredPort.SetPromiscuous(true)
			var wireCapture []byte
			var wireFrames uint64
			wiredPort.SetReceiver(func(f ethernet.Frame) {
				if f.Type == ethernet.TypeIPv4 {
					wireFrames++
					wireCapture = append(wireCapture, f.Payload...)
				}
			})

			w.VictimConnect()
			w.Run(10 * sim.Second)
			var res core.DownloadResult
			w.VictimDownload(func(r core.DownloadResult) { res = r })
			w.Run(30 * sim.Second)
			var c capture
			if res.Err != nil {
				c.notes = append(c.notes, "WARNING: victim download failed: "+res.Err.Error())
			}
			c.rows = append(c.rows,
				[]string{"wireless monitor, 10 m from AP",
					fmt.Sprintf("%d / %d", airFrames, len(airCapture)), recovered(airCapture)},
				[]string{"switched wired port (promiscuous)",
					fmt.Sprintf("%d / %d", wireFrames, len(wireCapture)), recovered(wireCapture)})
			return c
		}
		// WEP variant: passive capture of an encrypted cell, read back without
		// and with the (Airsnort-recoverable) key.
		key := wep.Key40FromString("SECRET")
		w2 := core.NewWorld(core.Config{Seed: 12, APPos: phyPos(0), VictimPos: phyPos(20),
			WEPKey: key, FileContents: secret})
		mon2 := dot11.NewMonitor(w2.Medium.AddRadio(phy.RadioConfig{Name: "sniffer2", Pos: phyPos(10), Channel: 1}))
		var sealedBodies [][]byte
		mon2.OnFrame = func(f dot11.Frame, info phy.RxInfo) {
			if f.Type == dot11.TypeData && f.Protected {
				sealedBodies = append(sealedBodies, append([]byte(nil), f.Body...))
			}
		}
		w2.VictimConnect()
		w2.Run(10 * sim.Second)
		w2.VictimDownload(func(core.DownloadResult) {})
		w2.Run(30 * sim.Second)
		var rawCat, decCat []byte
		for _, b := range sealedBodies {
			rawCat = append(rawCat, b...)
			if plain, err := wep.Open(key, b); err == nil {
				decCat = append(decCat, plain...)
			}
		}
		var c capture
		c.rows = append(c.rows,
			[]string{"wireless monitor, WEP cell, no key",
				fmt.Sprintf("%d / %d", len(sealedBodies), len(rawCat)), recovered(rawCat)},
			[]string{"wireless monitor, WEP cell, cracked key",
				fmt.Sprintf("%d / %d", len(sealedBodies), len(decCat)), recovered(decCat)})
		return c
	})
	for _, r := range results {
		t.Rows = append(t.Rows, r.rows...)
		t.Notes = append(t.Notes, r.notes...)
	}
	t.Notes = append(t.Notes,
		"WEP stops a passive outsider only until the key is recovered (E4); a key-holding rogue was never stopped (E2)")
	return t
}

// E9Overhead (§5): the cost of the defense on a healthy network — plain vs
// WEP vs full-tunnel VPN (both carriers).
func E9Overhead(s Scale) Table {
	t := Table{
		ID:      "E9",
		Title:   "End-to-end cost of each protection level (healthy network)",
		Columns: []string{"configuration", "download time (s)", "goodput (kB/s)", "relative"},
		Notes: []string{
			"350 kB download over the real AP at 11 Mb/s; mean of trials",
			"the VPN's modest constant cost is the paper's asking price for immunity to everything in E2",
		},
	}
	type scenario struct {
		name    string
		key     wep.Key
		vpn     bool
		carrier vpn.Carrier
	}
	scenarios := []scenario{
		{"open, no VPN", nil, false, vpn.CarrierTCP},
		{"WEP", wep.Key40FromString("SECRET"), false, vpn.CarrierTCP},
		{"VPN over TCP (PPP/SSH)", nil, true, vpn.CarrierTCP},
		{"VPN over UDP", nil, true, vpn.CarrierUDP},
	}
	file := make([]byte, 350_000)
	for i := range file {
		file[i] = byte(i)
	}
	type point struct {
		sc   scenario
		seed uint64
	}
	var points []point
	for _, sc := range scenarios {
		for _, seed := range core.Seeds(9, s.trials()) {
			points = append(points, point{sc, seed})
		}
	}
	results := core.Sweep(points, func(p point) float64 {
		sc := p.sc
		cfg := core.Config{
			Seed: p.seed, WEPKey: sc.key, VPNServer: sc.vpn, VPNCarrier: sc.carrier,
			VictimPos: phyPos(20), FileContents: file,
		}
		w := core.NewWorld(cfg)
		w.VictimConnect()
		w.Run(10 * sim.Second)
		if sc.vpn {
			up := false
			w.EnableVictimVPN(nil, func(err error) { up = err == nil })
			w.Run(20 * sim.Second)
			if !up {
				return -1
			}
		}
		start := w.Kernel.Now()
		var doneAt sim.Time
		var res core.DownloadResult
		w.VictimDownload(func(r core.DownloadResult) { res = r; doneAt = w.Kernel.Now() })
		w.Run(2 * sim.Minute)
		if res.Err != nil || !res.Clean() {
			return -1
		}
		return (doneAt - start).Seconds()
	})
	// The "relative" column divides by the first scenario's mean, so rows are
	// assembled sequentially even though the trials ran in one flat sweep.
	var baseline float64
	for i, sc := range scenarios {
		var times []float64
		for _, r := range results[i*s.trials() : (i+1)*s.trials()] {
			if r > 0 {
				times = append(times, r)
			}
		}
		if len(times) == 0 {
			t.AddRow(sc.name, "failed", "-", "-")
			continue
		}
		mean := core.Mean(times)
		if baseline == 0 {
			baseline = mean
		}
		t.AddRow(sc.name, fmt.Sprintf("%.3f", mean),
			fmt.Sprintf("%.0f", float64(len(file))/mean/1000),
			fmt.Sprintf("%.2fx", mean/baseline))
	}
	return t
}
