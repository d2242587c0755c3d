package core

import (
	"repro/internal/dot11"
	"repro/internal/ethernet"
	"repro/internal/httpx"
	"repro/internal/inet"
	"repro/internal/ipv4"
	"repro/internal/netfilter"
	"repro/internal/netsed"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/vpn"
)

// HotspotConfig builds the paper's OTHER deployment class (§1.2.2): a
// public hotspot whose operator is the attacker. There is no rogue second
// radio and nothing to detect over the air — the one and only AP is
// hostile, its gateway sits legitimately on the path, and it tampers with
// whatever it relays. "These networks are the real risk to wireless users
// whose home network has deployed an effective local security solution."
type HotspotConfig struct {
	Seed uint64
	// Hostile enables the operator's tampering (DNAT + netsed, like the
	// rogue's MITM module); false gives an honest hotspot baseline.
	Hostile bool
	// VPNServer stands up the victim's trusted endpoint out on the wired
	// internet side.
	VPNServer  bool
	VPNCarrier vpn.Carrier
}

// Hotspot is the assembled world: victim —air— hotspot AP+gateway —wire—
// internet (web server, optional VPN endpoint).
type Hotspot struct {
	Cfg    HotspotConfig
	Kernel *sim.Kernel
	Medium *phy.Medium
	Alloc  ethernet.MACAllocator

	// Gateway is the operator's box: AP host NIC on one side, wired
	// internet on the other, forwarding (and, if hostile, rewriting).
	Gateway   *Host
	GatewayFW *netfilter.Table
	Netsed    *netsed.Proxy

	Web       *Host
	WebServer *httpx.Server
	Site      *httpx.DownloadSite

	VPNHost   *Host
	VPNServer *vpn.Server

	Victim       *WirelessHost
	VictimClient *httpx.Client
	VictimVPN    *vpn.Client
}

// Hotspot addressing: clients on 192.168.1.0/24, "internet" reuses the
// backbone plan so WebServerIP/VPNEndpointIP stay valid.
var (
	HotspotPrefix  = inet.MustParsePrefix("192.168.1.0/24")
	HotspotGateway = inet.MustParseAddr("192.168.1.1")
	HotspotVictim  = inet.MustParseAddr("192.168.1.50")
)

// HotspotBSSID is the hotspot AP's address.
var HotspotBSSID = ethernet.MustParseMAC("02:40:96:c0:ff:ee")

// The hotspot's fixed content: the SSID it advertises, the genuine download
// the internet site serves, and the trojan the operator swaps in.
const (
	HotspotSSID   = "FreeAirportWiFi"
	hotspotFile   = "GENUINE-SOFTWARE-RELEASE-1.0\n"
	hotspotTrojan = "TROJANED-SOFTWARE-FROM-YOUR-FRIENDLY-HOTSPOT\n"
)

// NewHotspot assembles the scenario.
func NewHotspot(cfg HotspotConfig) *Hotspot {
	h := &Hotspot{Cfg: cfg}
	h.Kernel = sim.NewKernel(cfg.Seed)
	h.Medium = phy.NewMedium(h.Kernel, phy.Config{})

	backbone := ethernet.NewSwitch(h.Kernel, &h.Alloc, ethernet.SwitchConfig{})

	// The operator's AP — open network, as hotspots were.
	apRadio := h.Medium.AddRadio(phy.RadioConfig{Name: "hotspot-ap", Channel: 6})
	ap := dot11.NewAP(h.Kernel, apRadio, dot11.APConfig{
		SSID: HotspotSSID, BSSID: HotspotBSSID, Channel: 6,
	})

	// The operator's gateway: wlan0 = the AP's host side, wan0 = wire.
	h.Gateway = newHost(h.Kernel, "hotspot-gw")
	h.Gateway.IP.Forwarding = true
	h.Gateway.IP.AddIface("wlan0", ap.HostNIC(), HotspotGateway, HotspotPrefix)
	h.Gateway.AttachWired(backbone, &h.Alloc, "wan0", RouterBackbone, BackbonePrefix)

	if cfg.Hostile {
		h.GatewayFW = netfilter.New()
		h.Gateway.IP.AddHook(h.GatewayFW)
		cmd := "iptables -t nat -A PREROUTING -i wlan0 -p tcp -d " + WebServerIP.String() +
			" --dport 80 -j DNAT --to " + HotspotGateway.String() + ":10101"
		if _, err := h.GatewayFW.ParseIptables(cmd); err != nil {
			panic(err)
		}
		trojanSite := &httpx.DownloadSite{FileName: "trojan.tgz", Contents: []byte(hotspotTrojan)}
		genuineSite := &httpx.DownloadSite{FileName: GenuineFile, Contents: []byte(hotspotFile)}
		trojanURL := "http:%2f%2f" + HotspotGateway.String() + "%2ftrojan.tgz"
		proxy, err := netsed.Start(h.Gateway.TCP, netsed.Config{
			ListenPort: 10101,
			Upstream:   inet.HostPort{Addr: WebServerIP, Port: 80},
			Rules: []string{
				"s/href=" + GenuineFile + "/href=" + trojanURL,
				"s/" + genuineSite.MD5Hex() + "/" + trojanSite.MD5Hex(),
			},
		})
		if err != nil {
			panic(err)
		}
		h.Netsed = proxy
		// The operator serves the trojan from the gateway itself.
		gwWeb := httpx.NewServer(h.Gateway.TCP)
		gwWeb.Handle("/trojan.tgz", func(req *httpx.Request) *httpx.Response {
			return httpx.NewResponse(200, "application/octet-stream", []byte(hotspotTrojan))
		})
		if err := gwWeb.Start(80); err != nil {
			panic(err)
		}
	}

	// The target site out on the internet.
	h.Web = newHost(h.Kernel, "web")
	h.Web.AttachWired(backbone, &h.Alloc, "eth0", WebServerIP, BackbonePrefix)
	h.Web.IP.AddDefaultRoute(RouterBackbone, "eth0")
	// Return route for hotspot clients goes back through the gateway —
	// which IS the backbone router in this topology.
	h.WebServer = httpx.NewServer(h.Web.TCP)
	h.Site = &httpx.DownloadSite{FileName: GenuineFile, Contents: []byte(hotspotFile)}
	h.Site.Install(h.WebServer)
	if err := h.WebServer.Start(80); err != nil {
		panic(err)
	}

	if cfg.VPNServer {
		h.VPNHost = newHost(h.Kernel, "vpn-endpoint")
		h.VPNHost.IP.Forwarding = true
		h.VPNHost.AttachWired(backbone, &h.Alloc, "eth0", VPNEndpointIP, BackbonePrefix)
		h.VPNHost.IP.AddDefaultRoute(RouterBackbone, "eth0")
		sCfg := vpn.ServerConfig{PSK: h.vpnPSK(), Carrier: cfg.VPNCarrier, TunnelPrefix: TunnelPrefix}
		var err error
		if cfg.VPNCarrier == vpn.CarrierUDP {
			h.VPNServer, err = vpn.NewServerUDP(h.VPNHost.IP, h.VPNHost.UDP, sCfg)
		} else {
			h.VPNServer, err = vpn.NewServerTCP(h.VPNHost.IP, h.VPNHost.TCP, sCfg)
		}
		if err != nil {
			panic(err)
		}
		// The web host must route tunnel addresses back via the endpoint.
		h.Web.IP.AddRoute(ipv4.Route{Prefix: TunnelPrefix, Gateway: VPNEndpointIP, Iface: "eth0"})
	}

	// The roaming victim.
	radio := h.Medium.AddRadio(phy.RadioConfig{Name: "victim", Pos: phy.Position{X: 15}, Channel: 1})
	sta := dot11.NewSTA(h.Kernel, radio, dot11.STAConfig{MAC: VictimMAC, SSID: HotspotSSID})
	h.Victim = &WirelessHost{Host: newHost(h.Kernel, "victim"), STA: sta, Radio: radio}
	h.Victim.IP.AddIface("wlan0", sta.NIC(), HotspotVictim, HotspotPrefix)
	h.Victim.IP.AddDefaultRoute(HotspotGateway, "wlan0")
	h.VictimClient = httpx.NewClient(h.Victim.TCP)
	return h
}

func (h *Hotspot) vpnPSK() []byte { return []byte("home-corp-preshared-secret") }

// Run advances virtual time.
func (h *Hotspot) Run(d sim.Time) { h.Kernel.RunFor(d) }

// VictimConnect starts association.
func (h *Hotspot) VictimConnect() { h.Victim.STA.Connect() }

// EnableVictimVPN brings up the tunnel home (requires VPNServer).
func (h *Hotspot) EnableVictimVPN(done func(error)) {
	if h.VPNServer == nil {
		panic("core: hotspot built without VPNServer")
	}
	h.Victim.TCP.MSS = vpn.InnerMSS
	cfg := vpn.ClientConfig{
		PSK:     h.vpnPSK(),
		Server:  inet.HostPort{Addr: VPNEndpointIP, Port: vpn.DefaultPort},
		Carrier: h.Cfg.VPNCarrier,
	}
	var cli *vpn.Client
	var err error
	if h.Cfg.VPNCarrier == vpn.CarrierUDP {
		cli, err = vpn.ConnectUDP(h.Victim.IP, h.Victim.UDP, cfg)
	} else {
		cli, err = vpn.ConnectTCP(h.Victim.IP, h.Victim.TCP, cfg)
	}
	if err != nil {
		done(err)
		return
	}
	h.VictimVPN = cli
	cli.OnUp = func(inet.Addr) { done(nil) }
	cli.OnDown = done
}

// VictimDownload runs the download-and-verify flow against the internet
// site through the hotspot.
func (h *Hotspot) VictimDownload(done func(DownloadResult)) {
	pageHP := inet.HostPort{Addr: WebServerIP, Port: 80}
	downloadFlow(h.VictimClient, pageHP, []byte(hotspotFile), done)
}
