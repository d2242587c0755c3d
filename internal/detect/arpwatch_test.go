package detect

import (
	"testing"

	"repro/internal/arp"
	"repro/internal/attack"
	"repro/internal/dot11"
	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/ipv4"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/wep"
)

func TestArpwatchFlipFlop(t *testing.T) {
	k := sim.NewKernel(1)
	w := &Arpwatch{kernel: k, bindings: map[[4]byte]ethernet.MAC{}}
	macA := ethernet.MustParseMAC("02:00:00:00:00:0a")
	macB := ethernet.MustParseMAC("02:00:00:00:00:0b")
	ip := inet.MustParseAddr("10.0.0.3")

	pkt := func(hw ethernet.MAC) []byte {
		p := arp.Packet{Op: arp.OpRequest, SenderHW: hw, SenderIP: ip, TargetIP: ip}
		return p.Marshal()
	}
	w.observe(pkt(macA))
	w.observe(pkt(macA))
	if len(w.Alerts) != 0 {
		t.Fatalf("stable binding alerted: %v", w.Alerts)
	}
	w.observe(pkt(macB))
	if len(w.Alerts) != 1 || w.Alerts[0].Kind != AlertARPFlipFlop {
		t.Fatalf("flip not alerted: %v", w.Alerts)
	}
	w.observe(pkt(macA)) // flop back
	if len(w.Alerts) != 2 {
		t.Fatalf("flop back not alerted: %v", w.Alerts)
	}
	if m, ok := w.Binding([4]byte(ip)); !ok || m != macA {
		t.Fatalf("binding = %v, %v", m, ok)
	}
}

func TestArpwatchIgnoresUnspecifiedSender(t *testing.T) {
	k := sim.NewKernel(1)
	w := &Arpwatch{kernel: k, bindings: map[[4]byte]ethernet.MAC{}}
	p := arp.Packet{Op: arp.OpRequest, SenderHW: ethernet.MustParseMAC("02:00:00:00:00:0a")}
	w.observe(p.Marshal())
	w.observe([]byte{1, 2, 3}) // garbage
	if len(w.Alerts) != 0 || len(w.bindings) != 0 {
		t.Fatal("probe/garbage affected state")
	}
}

// TestArpwatchCatchesRoguePoisoning is the full §2.3 wired-side story: the
// victim lives on the real AP (its ARP traffic teaches the wire its real
// MAC); the attacker forces it onto the rogue, whose upstream poisoning
// moves the victim's IP to the attacker's MAC — and arpwatch flags the move.
func TestArpwatchCatchesRoguePoisoning(t *testing.T) {
	k := sim.NewKernel(1)
	m := phy.NewMedium(k, phy.Config{})
	key := wep.Key40FromString("SECRET")
	corpBSSID := ethernet.MustParseMAC("02:aa:bb:cc:dd:01")
	victimMAC := ethernet.MustParseMAC("02:00:00:00:03:01")

	// Wired side: switch with a router host and the arpwatch sensor.
	var alloc ethernet.MACAllocator
	sw := ethernet.NewSwitch(k, &alloc)
	prefix := inet.MustParsePrefix("10.0.0.0/24")
	routerIP := inet.MustParseAddr("10.0.0.1")
	router := ipv4.NewStack(k, "router")
	router.AddIface("eth0", sw.Attach(alloc.Next()), routerIP, prefix)
	watch := NewArpwatch(k, sw.Attach(alloc.Next()))

	// Real AP bridging wireless to the switch.
	ap := dot11.NewAP(k, m.AddRadio(phy.RadioConfig{Name: "corp", Pos: phy.Position{X: 0, Y: 0}, Channel: 1}),
		dot11.APConfig{SSID: "CORP", BSSID: corpBSSID, Channel: 1, WEPKey: key})
	ap.AttachUplink(sw.Attach(alloc.Next()))

	// Victim: wireless host that pings the router periodically.
	victimSTA := dot11.NewSTA(k, m.AddRadio(phy.RadioConfig{Name: "victim", Pos: phy.Position{X: 40, Y: 0}, Channel: 1}),
		dot11.STAConfig{MAC: victimMAC, SSID: "CORP", WEPKey: key})
	victimIP := ipv4.NewStack(k, "victim")
	victimIP.AddIface("wlan0", victimSTA.NIC(), inet.MustParseAddr("10.0.0.3"), prefix)
	victimIP.AddDefaultRoute(routerIP, "wlan0")
	var ping func()
	seq := uint16(0)
	ping = func() {
		seq++
		_ = victimIP.Ping(routerIP, 1, seq, nil)
		k.After(2*sim.Second, ping)
	}
	victimSTA.Connect()
	k.After(5*sim.Second, ping)
	k.RunUntil(12 * sim.Second)
	if victimSTA.BSS().Channel != 1 {
		t.Fatalf("victim should start on the real AP (ch %d)", victimSTA.BSS().Channel)
	}
	if _, ok := watch.Binding([4]byte{10, 0, 0, 3}); !ok {
		t.Fatal("wire never learned the victim's real binding")
	}
	if len(watch.Alerts) != 0 {
		t.Fatalf("false positives before the attack: %v", watch.Alerts)
	}

	// The attack: rogue kit + deauth forcing.
	attack.NewRogueKit(k, m, phy.Position{X: 42, Y: 0}, attack.RogueKitConfig{
		SSID: "CORP", CloneBSSID: corpBSSID, Channel: 6, WEPKey: key,
		StationMAC: ethernet.MustParseMAC("02:00:00:00:66:01"),
		WlanIP:     inet.MustParseAddr("10.0.0.201"),
		EthIP:      inet.MustParseAddr("10.0.0.200"),
		Prefix:     prefix,
		DefaultGW:  routerIP,
	})
	k.RunUntil(k.Now() + 5*sim.Second)
	d := attack.NewDeauther(k, m, phy.Position{X: 41, Y: 0}, 1)
	d.Flood(victimMAC, corpBSSID, 100*sim.Millisecond)
	k.RunUntil(k.Now() + 10*sim.Second)
	d.Stop()
	// The victim keeps pinging with a warm ARP cache (60 s TTL) that still
	// points at the real router MAC; the rogue can only proxy-answer (and
	// poison upstream) once the victim re-ARPs. Wait out the TTL.
	k.RunUntil(k.Now() + 80*sim.Second)

	if victimSTA.BSS().Channel != 6 {
		t.Skipf("victim not captured by rogue (ch %d); poisoning untestable", victimSTA.BSS().Channel)
	}
	flip := false
	for _, a := range watch.Alerts {
		if a.Kind == AlertARPFlipFlop {
			flip = true
		}
	}
	if !flip {
		t.Fatalf("arpwatch missed the rogue's poisoning (alerts: %v, packets: %d)",
			watch.Alerts, watch.PacketsSeen)
	}
}
