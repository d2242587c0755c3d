package core

import (
	"bytes"
	"testing"

	"repro/internal/inet"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/vpn"
	"repro/internal/wep"
)

// settleTime is long enough for scan + join + bridge learning.
const settleTime = 10 * sim.Second

func TestHealthyWorldCleanDownload(t *testing.T) {
	w := NewWorld(Config{Seed: 1})
	w.VictimConnect()
	w.Run(settleTime)
	if !w.VictimAssociated() {
		t.Fatal("victim never associated")
	}
	var res DownloadResult
	got := false
	w.VictimDownload(func(r DownloadResult) { res = r; got = true })
	w.Run(30 * sim.Second)
	if !got {
		t.Fatal("download never completed")
	}
	if res.Err != nil {
		t.Fatalf("download error: %v", res.Err)
	}
	if !res.Clean() {
		t.Fatalf("healthy network produced unclean download: %+v", res)
	}
	if !bytes.Equal(res.Body, w.Cfg.FileContents) {
		t.Fatal("body mismatch")
	}
}

func TestHealthyWorldWithWEP(t *testing.T) {
	w := NewWorld(Config{Seed: 1, WEPKey: wep.Key40FromString("SECRET"), SharedKeyAuth: true})
	w.VictimConnect()
	w.Run(settleTime)
	var res DownloadResult
	w.VictimDownload(func(r DownloadResult) { res = r })
	w.Run(30 * sim.Second)
	if !res.Clean() {
		t.Fatalf("WEP network unclean download: %+v (err=%v)", res, res.Err)
	}
}

// rogueWinsGeometry sets positions that guarantee the rogue wins the
// victim's best-RSSI scan: 2 m from the victim vs 40 m to the real AP.
func rogueWinsGeometry(cfg *Config) {
	cfg.APPos = phy.Position{X: 0, Y: 0}
	cfg.VictimPos = phy.Position{X: 40, Y: 0}
	cfg.RoguePos = phy.Position{X: 42, Y: 0}
}

func TestE2DownloadMITMCompromisesVictim(t *testing.T) {
	// The full Section 4 experiment: WEP on, rogue with the key, cloned
	// BSSID and SSID, parprouted bridge, DNAT, netsed — and the victim's
	// md5sum check PASSES on the trojan.
	cfg := Config{Seed: 1, WEPKey: wep.Key40FromString("SECRET"),
		Rogue: true, RogueCloneBSSID: true}
	rogueWinsGeometry(&cfg)
	w := NewWorld(cfg)
	w.VictimConnect()
	w.Run(settleTime)
	if !w.VictimOnRogue() {
		t.Fatalf("victim not on rogue (state %v, channel %v)", w.Victim.STA.State(), w.Victim.STA.BSS().Channel)
	}
	if !w.Rogue.UplinkUp {
		t.Fatal("rogue's client side never associated to CORP")
	}
	var res DownloadResult
	got := false
	w.VictimDownload(func(r DownloadResult) { res = r; got = true })
	w.Run(60 * sim.Second)
	if !got {
		t.Fatal("download never completed")
	}
	if res.Err != nil {
		t.Fatalf("download failed: %v", res.Err)
	}
	if !res.Tampered {
		t.Fatal("download was not tampered — MITM did not engage")
	}
	if !res.MD5OK {
		t.Fatal("tampered file failed the page's md5 check — netsed missed the sum")
	}
	if !res.Compromised() {
		t.Fatalf("not compromised: %+v", res)
	}
	if !res.LinkRedirected {
		t.Fatal("naive attack should reveal the redirect (paper §4.2)")
	}
	if !bytes.Equal(res.Body, w.Cfg.TrojanContents) {
		t.Fatal("victim did not receive the trojan body")
	}
	if w.Netsed.Connections == 0 {
		t.Fatal("netsed proxied no connections")
	}
}

func TestRoguePureRelayLeavesDownloadIntact(t *testing.T) {
	// Bridge-only rogue: the victim still reaches the real site unmodified
	// ("a rogue access point ... not a threat to the clients" — until the
	// MITM module is switched on).
	cfg := Config{Seed: 1, Rogue: true, RogueCloneBSSID: true, RoguePureRelay: true}
	rogueWinsGeometry(&cfg)
	w := NewWorld(cfg)
	w.VictimConnect()
	w.Run(settleTime)
	if !w.VictimOnRogue() {
		t.Fatal("victim not on rogue")
	}
	var res DownloadResult
	w.VictimDownload(func(r DownloadResult) { res = r })
	w.Run(60 * sim.Second)
	if !res.Clean() {
		t.Fatalf("pure relay corrupted the download: %+v err=%v", res, res.Err)
	}
}

func TestE3VPNDefeatsMITM(t *testing.T) {
	// Figure 3: same attack, but the victim tunnels everything to the
	// trusted endpoint. The download must arrive genuine.
	cfg := Config{Seed: 1, WEPKey: wep.Key40FromString("SECRET"),
		Rogue: true, RogueCloneBSSID: true, VPNServer: true}
	rogueWinsGeometry(&cfg)
	w := NewWorld(cfg)
	w.VictimConnect()
	w.Run(settleTime)
	if !w.VictimOnRogue() {
		t.Fatal("victim not on rogue")
	}
	vpnUp := false
	w.EnableVictimVPN(nil, func(err error) {
		if err != nil {
			t.Errorf("vpn: %v", err)
			return
		}
		vpnUp = true
	})
	w.Run(20 * sim.Second)
	if !vpnUp {
		t.Fatal("tunnel never came up through the rogue")
	}
	var res DownloadResult
	w.VictimDownload(func(r DownloadResult) { res = r })
	w.Run(60 * sim.Second)
	if res.Err != nil {
		t.Fatalf("download through VPN failed: %v", res.Err)
	}
	if res.Tampered {
		t.Fatal("VPN-protected download was tampered")
	}
	if !res.Clean() {
		t.Fatalf("not clean: %+v", res)
	}
	if w.Netsed != nil && w.Netsed.ReplacementsIn > 0 {
		t.Fatal("netsed rewrote tunnel traffic?!")
	}
}

func TestE3SplitTunnelStillCompromised(t *testing.T) {
	// Ablation: tunnel only some unrelated prefix; web traffic stays
	// outside the tunnel and the MITM still wins. "Must handle all client
	// traffic" (§5.2, requirement 4).
	cfg := Config{Seed: 1, Rogue: true, RogueCloneBSSID: true, VPNServer: true}
	rogueWinsGeometry(&cfg)
	w := NewWorld(cfg)
	w.VictimConnect()
	w.Run(settleTime)
	vpnUp := false
	w.EnableVictimVPN([]inet.Prefix{inet.MustParsePrefix("172.16.0.0/12")}, func(err error) {
		vpnUp = err == nil
	})
	w.Run(20 * sim.Second)
	if !vpnUp {
		t.Fatal("split tunnel never came up")
	}
	var res DownloadResult
	w.VictimDownload(func(r DownloadResult) { res = r })
	w.Run(60 * sim.Second)
	if !res.Compromised() {
		t.Fatalf("split tunnel should NOT protect the download: %+v err=%v", res, res.Err)
	}
}

func TestVPNOverUDPCarrier(t *testing.T) {
	cfg := Config{Seed: 1, Rogue: true, RogueCloneBSSID: true,
		VPNServer: true, VPNCarrier: vpn.CarrierUDP}
	rogueWinsGeometry(&cfg)
	w := NewWorld(cfg)
	w.VictimConnect()
	w.Run(settleTime)
	vpnUp := false
	w.EnableVictimVPN(nil, func(err error) { vpnUp = err == nil })
	w.Run(20 * sim.Second)
	if !vpnUp {
		t.Fatal("UDP-carrier tunnel never came up")
	}
	var res DownloadResult
	w.VictimDownload(func(r DownloadResult) { res = r })
	w.Run(60 * sim.Second)
	if !res.Clean() {
		t.Fatalf("UDP tunnel download not clean: %+v err=%v", res, res.Err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() DownloadResult {
		cfg := Config{Seed: 42, Rogue: true, RogueCloneBSSID: true}
		rogueWinsGeometry(&cfg)
		w := NewWorld(cfg)
		w.VictimConnect()
		w.Run(settleTime)
		var res DownloadResult
		w.VictimDownload(func(r DownloadResult) { res = r })
		w.Run(60 * sim.Second)
		return res
	}
	a, b := run(), run()
	if a.Compromised() != b.Compromised() || !bytes.Equal(a.Body, b.Body) {
		t.Fatal("same seed, different outcome")
	}
}

func TestSweepParallelism(t *testing.T) {
	seeds := Seeds(7, 8)
	results := Sweep(seeds, func(seed uint64) bool {
		cfg := Config{Seed: seed, Rogue: true, RogueCloneBSSID: true}
		rogueWinsGeometry(&cfg)
		w := NewWorld(cfg)
		w.VictimConnect()
		w.Run(settleTime)
		var res DownloadResult
		w.VictimDownload(func(r DownloadResult) { res = r })
		w.Run(60 * sim.Second)
		return res.Compromised()
	})
	if Fraction(results) < 0.9 {
		t.Fatalf("attack success fraction %v across seeds", Fraction(results))
	}
}

func TestSeedsDistinct(t *testing.T) {
	s := Seeds(1, 100)
	seen := map[uint64]bool{}
	for _, v := range s {
		if seen[v] {
			t.Fatal("duplicate seed")
		}
		seen[v] = true
	}
}

func TestMeanAndFraction(t *testing.T) {
	if Mean(nil) != 0 || Fraction(nil) != 0 {
		t.Fatal("empty cases")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
	if Fraction([]bool{true, false, true, true}) != 0.75 {
		t.Fatal("fraction")
	}
}

func TestHostileHotspotCompromisesVictim(t *testing.T) {
	// §1.2.2: no rogue hardware, no detection story — the network itself is
	// the attacker, and the victim's md5 check still passes on the trojan.
	w := NewWorld(Config{Seed: 1, Checks: true})
	w.HijackGateway()
	w.VictimConnect()
	w.Run(settleTime)
	var res DownloadResult
	w.VictimDownload(func(r DownloadResult) { res = r })
	w.Run(60 * sim.Second)
	if res.Err != nil {
		t.Fatalf("download: %v", res.Err)
	}
	if !res.Compromised() {
		t.Fatalf("hostile gateway did not compromise: %+v", res)
	}
	if !bytes.Equal(res.Body, w.Cfg.TrojanContents) {
		t.Fatal("victim did not get the operator's trojan")
	}
	if w.Netsed.Connections == 0 {
		t.Fatal("gateway netsed relayed nothing")
	}
}

func TestHostileHotspotDefeatedByVPN(t *testing.T) {
	// The paper's whole §5 argument: only a tunnel to a *preestablished*
	// home endpoint survives a gateway whose very operator is hostile.
	w := NewWorld(Config{Seed: 1, Checks: true, VPNServer: true})
	w.HijackGateway()
	w.VictimConnect()
	w.Run(settleTime)
	up := false
	w.EnableVictimVPN(nil, func(err error) {
		if err != nil {
			t.Errorf("vpn: %v", err)
			return
		}
		up = true
	})
	w.Run(20 * sim.Second)
	if !up {
		t.Fatal("tunnel never came up through the hostile gateway")
	}
	var res DownloadResult
	w.VictimDownload(func(r DownloadResult) { res = r })
	w.Run(60 * sim.Second)
	if !res.Clean() {
		t.Fatalf("VPN through hostile gateway not clean: %+v err=%v", res, res.Err)
	}
	if w.Netsed.ReplacementsIn > 0 {
		t.Fatal("operator's netsed modified tunnel traffic")
	}
}

func TestHostileHotspotVPNOverUDP(t *testing.T) {
	w := NewWorld(Config{Seed: 2, Checks: true, VPNServer: true, VPNCarrier: vpn.CarrierUDP})
	w.HijackGateway()
	w.VictimConnect()
	w.Run(settleTime)
	up := false
	w.EnableVictimVPN(nil, func(err error) { up = err == nil })
	w.Run(20 * sim.Second)
	if !up {
		t.Fatal("UDP tunnel never came up")
	}
	var res DownloadResult
	w.VictimDownload(func(r DownloadResult) { res = r })
	w.Run(60 * sim.Second)
	if !res.Clean() {
		t.Fatalf("not clean: %+v err=%v", res, res.Err)
	}
}
