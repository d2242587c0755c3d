package core

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/vpn"
)

func TestHonestHotspotCleanDownload(t *testing.T) {
	h := NewHotspot(HotspotConfig{Seed: 1})
	h.VictimConnect()
	h.Run(10 * sim.Second)
	if h.Victim.STA.State().String() != "associated" {
		t.Fatalf("victim state %v", h.Victim.STA.State())
	}
	var res DownloadResult
	h.VictimDownload(func(r DownloadResult) { res = r })
	h.Run(30 * sim.Second)
	if !res.Clean() {
		t.Fatalf("honest hotspot unclean: %+v err=%v", res, res.Err)
	}
}

func TestHostileHotspotCompromisesVictim(t *testing.T) {
	// §1.2.2: no rogue hardware, no detection story — the network itself is
	// the attacker, and the victim's md5 check still passes on the trojan.
	h := NewHotspot(HotspotConfig{Seed: 1, Hostile: true})
	h.VictimConnect()
	h.Run(10 * sim.Second)
	var res DownloadResult
	h.VictimDownload(func(r DownloadResult) { res = r })
	h.Run(60 * sim.Second)
	if res.Err != nil {
		t.Fatalf("download: %v", res.Err)
	}
	if !res.Compromised() {
		t.Fatalf("hostile hotspot did not compromise: %+v", res)
	}
	if !bytes.Equal(res.Body, []byte(hotspotTrojan)) {
		t.Fatal("victim did not get the operator's trojan")
	}
	if h.Netsed.Connections == 0 {
		t.Fatal("gateway netsed relayed nothing")
	}
}

func TestHostileHotspotDefeatedByVPN(t *testing.T) {
	// The paper's whole §5 argument: only a tunnel to a *preestablished*
	// home endpoint survives a hotspot whose very operator is hostile.
	h := NewHotspot(HotspotConfig{Seed: 1, Hostile: true, VPNServer: true})
	h.VictimConnect()
	h.Run(10 * sim.Second)
	up := false
	h.EnableVictimVPN(func(err error) {
		if err != nil {
			t.Errorf("vpn: %v", err)
			return
		}
		up = true
	})
	h.Run(20 * sim.Second)
	if !up {
		t.Fatal("tunnel never came up through the hostile hotspot")
	}
	var res DownloadResult
	h.VictimDownload(func(r DownloadResult) { res = r })
	h.Run(60 * sim.Second)
	if !res.Clean() {
		t.Fatalf("VPN through hostile hotspot not clean: %+v err=%v", res, res.Err)
	}
	if h.Netsed != nil && h.Netsed.ReplacementsIn > 0 {
		t.Fatal("operator's netsed modified tunnel traffic")
	}
}

func TestHostileHotspotVPNOverUDP(t *testing.T) {
	h := NewHotspot(HotspotConfig{Seed: 2, Hostile: true, VPNServer: true, VPNCarrier: vpn.CarrierUDP})
	h.VictimConnect()
	h.Run(10 * sim.Second)
	up := false
	h.EnableVictimVPN(func(err error) { up = err == nil })
	h.Run(20 * sim.Second)
	if !up {
		t.Fatal("UDP tunnel never came up")
	}
	var res DownloadResult
	h.VictimDownload(func(r DownloadResult) { res = r })
	h.Run(60 * sim.Second)
	if !res.Clean() {
		t.Fatalf("not clean: %+v err=%v", res, res.Err)
	}
}
