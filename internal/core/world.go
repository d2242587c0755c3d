package core

import (
	"strings"

	"repro/internal/attack"
	"repro/internal/dot11"
	"repro/internal/ethernet"
	"repro/internal/faults"
	"repro/internal/httpx"
	"repro/internal/inet"
	"repro/internal/ipv4"
	"repro/internal/netsed"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/vpn"
	"repro/internal/wep"
)

// Canonical addressing of the reproduction world.
var (
	// Corp LAN (wireless bridged with wired): 10.0.0.0/24.
	CorpPrefix = inet.MustParsePrefix("10.0.0.0/24")
	RouterCorp = inet.MustParseAddr("10.0.0.1")
	VictimIP   = inet.MustParseAddr("10.0.0.3")
	RogueWlan  = inet.MustParseAddr("10.0.0.201")
	RogueEth   = inet.MustParseAddr("10.0.0.200")

	// Secure wired / "internet" side: 198.18.0.0/24.
	BackbonePrefix = inet.MustParsePrefix("198.18.0.0/24")
	RouterBackbone = inet.MustParseAddr("198.18.0.1")
	WebServerIP    = inet.MustParseAddr("198.18.0.80")
	VPNEndpointIP  = inet.MustParseAddr("198.18.0.44")

	// Overlay relay hosts (Config.Overlay): two independent first hops, so
	// the mesh always has an alternate chain to fail over to.
	Relay1IP = inet.MustParseAddr("198.18.0.51")
	Relay2IP = inet.MustParseAddr("198.18.0.52")
)

// CorpBSSID is the real AP's BSSID — the paper's Figure 1 shows the rogue
// cloning it.
var CorpBSSID = ethernet.MustParseMAC("02:aa:bb:cc:dd:01")

// VictimMAC is the victim laptop's address.
var VictimMAC = ethernet.MustParseMAC("02:00:00:00:03:01")

// RogueSTAMAC is the attacker's client-side card (before any cloning).
var RogueSTAMAC = ethernet.MustParseMAC("02:00:00:00:66:01")

// The corp network's radio plan (Figure 1): the real AP and the rogue both
// advertise CorpSSID, the AP on CorpChannel and the rogue on RogueChannel.
const (
	CorpSSID                 = "CORP"
	CorpChannel  phy.Channel = 1
	RogueChannel phy.Channel = 6
)

// Config selects what to build. The zero value is a healthy network: CORP AP
// on channel 1, a victim, a router, and the target web site — no attacker.
type Config struct {
	Seed uint64

	// Checks enables the kernel's invariant checking (sim.Kernel.
	// SetInvariantChecks) for this world. It must be decided at
	// construction: components install extra accounting (e.g. the WEP IV
	// tracker) only when checks are on. Tests turn it on; cmd/roguesim
	// exposes it as -check.
	Checks bool

	// WEPKey protects the wireless network when set ("SECRET" in Fig. 1).
	WEPKey wep.Key
	// MACFilter restricts the real AP to the victim's (and, if cloned,
	// the attacker's) MAC.
	MACFilter bool

	// Geometry (defaults: AP at origin, victim 20 m away, rogue 5 m from
	// the victim).
	APPos, VictimPos, RoguePos phy.Position
	ShadowingSigmaDB           float64

	// Rogue enables the attacker.
	Rogue bool
	// RogueCloneBSSID: clone the real BSSID (Figure 1 behaviour). If
	// false the rogue uses its own BSSID (still same SSID).
	RogueCloneBSSID bool
	// RogueStationMAC overrides the attacker's client-side MAC (for the
	// MAC-filter bypass, clone VictimMAC or a harvested MAC).
	RogueStationMAC ethernet.MAC
	// ExtraNetsedRules appends additional substitutions to the attacker's
	// netsed (e.g. §5.1's script injection into any trusted page).
	ExtraNetsedRules []string
	// RoguePureRelay leaves the rogue without the MITM payload (bridge
	// only).
	RoguePureRelay bool

	// VPNServer stands up the trusted endpoint on the wired side.
	VPNServer  bool
	VPNCarrier vpn.Carrier
	// VPNKeepalive, when non-zero, enables the victim tunnel's dead-peer
	// detection and self-healing reconnect at this probe interval.
	VPNKeepalive sim.Time

	// Overlay replaces the point-to-point tunnel carrier with the multi-hop
	// mesh: two relay hosts on the backbone, an exit node co-located with
	// the trusted endpoint, and a client node on the victim dialing both
	// relays. The victim's tunnel then rides an overlay stream and fails
	// over to the surviving chain when a relay dies. Implies VPNServer.
	Overlay bool

	// Faults names a chaos schedule for this world: either a builtin name
	// (faults.BuiltinNames) or a raw schedule string like
	// "apcrash@35s+3s;burst@50s+20s(loss=0.8)". Empty means no fault
	// injection — the world is byte-for-byte the same as before the fault
	// subsystem existed.
	Faults string

	// FileContents is the genuine download (default a small tarball-ish
	// blob); TrojanContents the attacker's replacement.
	FileContents   []byte
	TrojanContents []byte
}

func (c *Config) fill() {
	if c.VictimPos == (phy.Position{}) {
		c.VictimPos = phy.Position{X: 20, Y: 0}
	}
	if c.RoguePos == (phy.Position{}) {
		c.RoguePos = phy.Position{X: 25, Y: 0}
	}
	if c.FileContents == nil {
		c.FileContents = []byte("GENUINE-SOFTWARE-RELEASE-1.0 :: " +
			"useful program bytes that the user intends to run\n")
	}
	if c.TrojanContents == nil {
		c.TrojanContents = []byte("TROJANED-SOFTWARE :: looks the same, " +
			"plus a rootkit the user did not intend to run\n")
	}
	if c.Overlay {
		c.VPNServer = true
	}
}

// World is a fully assembled scenario.
type World struct {
	Cfg    Config
	Kernel *sim.Kernel
	Medium *phy.Medium
	Alloc  ethernet.MACAllocator

	CorpSwitch     *ethernet.Switch
	BackboneSwitch *ethernet.Switch
	CorpAP         *dot11.AP
	// CorpUplink is the AP's port on the corp switch cable — the wire the
	// corrupt/dup faults chew on.
	CorpUplink *ethernet.Port

	// Faults is the chaos engine, non-nil iff Cfg.Faults named a schedule.
	Faults *faults.Engine

	Router    *Host
	Web       *Host
	WebServer *httpx.Server
	Site      *httpx.DownloadSite

	VPNHost   *Host
	VPNServer *vpn.Server

	// Overlay mesh (Cfg.Overlay): relay hosts and the four overlay nodes.
	Relay1, Relay2 *Host
	OverlayExit    *vpn.Node
	OverlayRelay1  *vpn.Node
	OverlayRelay2  *vpn.Node
	OverlayClient  *vpn.Node

	Victim       *WirelessHost
	VictimClient *httpx.Client
	VictimVPN    *vpn.Client

	Rogue *attack.RogueKit
	// Netsed is the attacker's netsed, on whichever gateway runs the MITM:
	// the rogue's bridge, or the corp router after HijackGateway. Nil while
	// no MITM runs.
	Netsed *netsed.Proxy
}

// TrojanPath is where the attacker's gateway serves the trojan.
const TrojanPath = "/trojan.tgz"

// GenuineFile is the paper's advertised artifact name.
const GenuineFile = "file.tgz"

// NewWorld builds a scenario. Construction-time misconfiguration panics,
// a fault schedule the world cannot host included.
func NewWorld(cfg Config) *World {
	w, err := newWorld(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// newWorld builds a scenario, reporting a fault schedule the world cannot
// host (one naming a target it lacks) as an error.
func newWorld(cfg Config) (*World, error) {
	cfg.fill()
	w := &World{Cfg: cfg}
	w.Kernel = sim.NewKernel(cfg.Seed)
	w.Kernel.SetInvariantChecks(cfg.Checks)
	w.Medium = phy.NewMedium(w.Kernel, phy.Config{ShadowingSigmaDB: cfg.ShadowingSigmaDB})

	w.CorpSwitch = ethernet.NewSwitch(w.Kernel, &w.Alloc)
	w.BackboneSwitch = ethernet.NewSwitch(w.Kernel, &w.Alloc)

	// --- The real AP: wireless BSS bridged onto the corp switch. ---
	var acl []ethernet.MAC
	if cfg.MACFilter {
		// The ACL lists only legitimate devices: a cloned MAC walks in
		// because it IS a listed value, and a distinct attacker MAC stays
		// unlisted.
		acl = []ethernet.MAC{VictimMAC}
	}
	apRadio := w.Medium.AddRadio(phy.RadioConfig{Name: "corp-ap", Pos: cfg.APPos, Channel: CorpChannel})
	w.CorpAP = dot11.NewAP(w.Kernel, apRadio, dot11.APConfig{
		SSID: CorpSSID, BSSID: CorpBSSID, Channel: CorpChannel,
		WEPKey: cfg.WEPKey, MACAllow: acl,
	})
	w.CorpUplink = w.CorpSwitch.Attach(w.Alloc.Next())
	w.CorpAP.AttachUplink(w.CorpUplink)

	// --- Router between corp LAN and backbone. ---
	w.Router = newHost(w.Kernel, "router")
	w.Router.IP.Forwarding = true
	w.Router.AttachWired(w.CorpSwitch, &w.Alloc, "lan0", RouterCorp, CorpPrefix)
	w.Router.AttachWired(w.BackboneSwitch, &w.Alloc, "wan0", RouterBackbone, BackbonePrefix)
	// Return path for VPN tunnel addresses.
	w.Router.IP.AddRoute(ipv4.Route{Prefix: vpn.TunnelPrefix, Gateway: VPNEndpointIP, Iface: "wan0"})

	// --- Target web site (the paper's download page). ---
	w.Web = newHost(w.Kernel, "web")
	w.Web.AttachWired(w.BackboneSwitch, &w.Alloc, "eth0", WebServerIP, BackbonePrefix)
	w.Web.IP.AddDefaultRoute(RouterBackbone, "eth0")
	w.WebServer = httpx.NewServer(w.Web.TCP)
	w.Site = &httpx.DownloadSite{FileName: GenuineFile, Contents: cfg.FileContents}
	w.Site.Install(w.WebServer)
	if err := w.WebServer.Start(80); err != nil {
		panic(err)
	}

	// --- Optional trusted VPN endpoint on the wired side. ---
	if cfg.VPNServer {
		w.VPNHost = newHost(w.Kernel, "vpn-endpoint")
		w.VPNHost.IP.Forwarding = true
		w.VPNHost.AttachWired(w.BackboneSwitch, &w.Alloc, "eth0", VPNEndpointIP, BackbonePrefix)
		w.VPNHost.IP.AddDefaultRoute(RouterBackbone, "eth0")
		sCfg := vpn.ServerConfig{PSK: w.vpnPSK()}
		var err error
		switch {
		case cfg.Overlay:
			w.buildOverlayMesh(sCfg)
		case cfg.VPNCarrier == vpn.CarrierUDP:
			w.VPNServer, err = vpn.NewServerUDP(w.VPNHost.IP, w.VPNHost.UDP, sCfg)
		default:
			w.VPNServer, err = vpn.NewServerTCP(w.VPNHost.IP, w.VPNHost.TCP, sCfg)
		}
		if err != nil {
			panic(err)
		}
	}

	// --- Victim laptop. ---
	w.Victim = w.newWirelessHost("victim", VictimMAC, VictimIP, cfg.VictimPos)
	w.VictimClient = httpx.NewClient(w.Victim.TCP)
	if cfg.Overlay {
		// The victim's overlay node dials both relays from the start; the
		// links live on the reconnect ladder until the victim associates,
		// then come up and learn the route to the exit.
		w.OverlayClient = vpn.NewNode(w.Victim.IP, w.Victim.TCP, w.overlayNodeConfig("wanderer", vpn.RoleClient, nil))
		w.OverlayClient.AddPeer(inet.HostPort{Addr: Relay1IP, Port: vpn.OverlayPort})
		w.OverlayClient.AddPeer(inet.HostPort{Addr: Relay2IP, Port: vpn.OverlayPort})
	}

	// --- The attacker. ---
	if cfg.Rogue {
		w.buildRogue()
	}

	// --- Chaos engine (last: it targets the assembled pieces). ---
	if cfg.Faults != "" {
		if err := w.installFaults(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// installFaults resolves the configured schedule and arms the chaos engine
// against this world's components.
func (w *World) installFaults() error {
	sched, err := faults.Resolve(w.Cfg.Faults)
	if err != nil {
		return err
	}
	hosts := map[string]*ipv4.Stack{
		"victim": w.Victim.IP,
		"router": w.Router.IP,
		"web":    w.Web.IP,
	}
	if w.VPNHost != nil {
		hosts["vpn-endpoint"] = w.VPNHost.IP
	}
	if w.Relay1 != nil {
		hosts["relay1"] = w.Relay1.IP
	}
	if w.Relay2 != nil {
		hosts["relay2"] = w.Relay2.IP
	}
	eng := faults.New(w.Kernel, faults.Targets{
		Medium:    w.Medium,
		AP:        w.CorpAP,
		STARadio:  w.Victim.Radio,
		VictimMAC: VictimMAC,
		BSSID:     CorpBSSID,
		Channel:   CorpChannel,
		// The deauther/jammer stands right next to the victim, like the
		// rogue would.
		AttackPos:   phy.Position{X: w.Cfg.VictimPos.X + 2, Y: w.Cfg.VictimPos.Y},
		UplinkPorts: []*ethernet.Port{w.CorpUplink},
		Hosts:       hosts,
		DefaultHost: "victim",
	})
	if err := eng.Install(sched); err != nil {
		return err
	}
	w.Faults = eng
	return nil
}

// vpnPSK is the preestablished out-of-band secret.
func (w *World) vpnPSK() []byte { return []byte("corp-vpn-preshared-secret") }

// overlayNodeConfig builds one mesh node's config.
func (w *World) overlayNodeConfig(name string, role vpn.Role, advertise []inet.Prefix) vpn.NodeConfig {
	return vpn.NodeConfig{Name: name, Role: role, PSK: w.vpnPSK(), Advertise: advertise}
}

// buildOverlayMesh stands up the relay hosts and overlay nodes: an exit on
// the trusted endpoint host advertising its address, two relays peered with
// it, and the tunnel server terminating overlay streams at the exit. The
// victim's client node is added later, once the victim exists.
func (w *World) buildOverlayMesh(sCfg vpn.ServerConfig) {
	mkRelay := func(name string, addr inet.Addr) *Host {
		h := newHost(w.Kernel, name)
		h.AttachWired(w.BackboneSwitch, &w.Alloc, "eth0", addr, BackbonePrefix)
		h.IP.AddDefaultRoute(RouterBackbone, "eth0")
		return h
	}
	w.Relay1 = mkRelay("relay1", Relay1IP)
	w.Relay2 = mkRelay("relay2", Relay2IP)

	exitPrefix := []inet.Prefix{{Addr: VPNEndpointIP, Bits: 32}}
	w.OverlayExit = vpn.NewNode(w.VPNHost.IP, w.VPNHost.TCP, w.overlayNodeConfig("exit", vpn.RoleExit, exitPrefix))
	if err := w.OverlayExit.Listen(); err != nil {
		panic(err)
	}
	mkNode := func(name string, h *Host) *vpn.Node {
		n := vpn.NewNode(h.IP, h.TCP, w.overlayNodeConfig(name, vpn.RoleRelay, nil))
		if err := n.Listen(); err != nil {
			panic(err)
		}
		n.AddPeer(inet.HostPort{Addr: VPNEndpointIP, Port: vpn.OverlayPort})
		return n
	}
	w.OverlayRelay1 = mkNode("relay1", w.Relay1)
	w.OverlayRelay2 = mkNode("relay2", w.Relay2)

	srv, err := vpn.NewServerStream(w.OverlayExit, sCfg)
	if err != nil {
		panic(err)
	}
	w.VPNServer = srv
}

// newWirelessHost joins a station to the corp ESS the way client firmware
// does: it takes the strongest signal, the behaviour the rogue exploits.
func (w *World) newWirelessHost(name string, mac ethernet.MAC, ip inet.Addr, pos phy.Position) *WirelessHost {
	radio := w.Medium.AddRadio(phy.RadioConfig{Name: name, Pos: pos, Channel: 1})
	sta := dot11.NewSTA(w.Kernel, radio, dot11.STAConfig{
		MAC: mac, SSID: CorpSSID, WEPKey: w.Cfg.WEPKey,
	})
	h := &WirelessHost{Host: newHost(w.Kernel, name), STA: sta, Radio: radio}
	h.IP.AddIface("wlan0", sta.NIC(), ip, CorpPrefix)
	h.IP.AddDefaultRoute(RouterCorp, "wlan0")
	return h
}

// buildRogue assembles the attacker per Section 4: the bridge, then, unless
// it is a pure relay, the MITM on the bridge's gateway.
func (w *World) buildRogue() {
	cfg := w.Cfg
	bssid := CorpBSSID
	if !cfg.RogueCloneBSSID {
		bssid = ethernet.MustParseMAC("02:66:66:66:66:01")
	}
	staMAC := cfg.RogueStationMAC
	if staMAC == (ethernet.MAC{}) {
		staMAC = RogueSTAMAC
	}
	w.Rogue = attack.NewRogueKit(w.Kernel, w.Medium, cfg.RoguePos, attack.RogueKitConfig{
		SSID:       CorpSSID,
		CloneBSSID: bssid,
		Channel:    RogueChannel,
		WEPKey:     cfg.WEPKey,
		StationMAC: staMAC,
		WlanIP:     RogueWlan,
		EthIP:      RogueEth,
		Prefix:     CorpPrefix,
		DefaultGW:  RouterCorp,
	})
	if !cfg.RoguePureRelay {
		w.startMITM(w.Rogue.IP, w.Rogue.TCP, RogueWlan)
	}
}

// HijackGateway makes the corp router hostile: the paper's §1.2.2 hotspot,
// whose operator is the attacker. The router runs the same MITM as the
// rogue and serves the trojan itself. Nothing changes on the air, so there
// is no rogue AP to detect. Call it before the victim downloads.
func (w *World) HijackGateway() {
	w.startMITM(w.Router.IP, w.Router.TCP, RouterCorp)
}

// startMITM runs Figure 2's MITM on a gateway whose address on the victim's
// side is gw, and serves the trojan from that gateway.
func (w *World) startMITM(ip *ipv4.Stack, t *tcp.Stack, gw inet.Addr) {
	proxy, err := attack.StartMITM(ip, t, WebServerIP, gw, w.trojanRules(gw))
	if err != nil {
		panic(err)
	}
	w.Netsed = proxy
	w.serveTrojan(t)
}

// trojanRules are the two rules of the paper's netsed command (Figure 2),
// aimed at a trojan served from gw: replace the link, then the published
// MD5 sum. Config.ExtraNetsedRules follow them.
func (w *World) trojanRules(gw inet.Addr) []string {
	// Slashes inside a netsed rule must be %2f-escaped — the paper's own
	// command does exactly this ("the %2f is ASCII hex for the / character").
	trojanURL := "http:%2f%2f" + gw.String() + strings.ReplaceAll(TrojanPath, "/", "%2f")
	trojanSite := &httpx.DownloadSite{FileName: "trojan.tgz", Contents: w.Cfg.TrojanContents}
	rules := []string{
		"s/href=" + GenuineFile + "/href=" + trojanURL,
		"s/" + w.Site.MD5Hex() + "/" + trojanSite.MD5Hex(),
	}
	return append(rules, w.Cfg.ExtraNetsedRules...)
}

// serveTrojan serves the trojaned download from the gateway itself ("a
// link to http://gateway/trojan.tgz").
func (w *World) serveTrojan(t *tcp.Stack) {
	srv := httpx.NewServer(t)
	srv.Handle(TrojanPath, func(req *httpx.Request) *httpx.Response {
		return httpx.NewResponse(200, "application/octet-stream", w.Cfg.TrojanContents)
	})
	if err := srv.Start(80); err != nil {
		panic(err)
	}
}

// NewSensor adds a monitor-mode ("rfmon") radio to the world — the WIDS
// sensor the detect scenario and tests attach a Detector to.
func (w *World) NewSensor(name string, pos phy.Position, ch phy.Channel) *dot11.Monitor {
	return dot11.NewMonitor(w.Medium.AddRadio(phy.RadioConfig{Name: name, Pos: pos, Channel: ch}))
}

// EnableVictimVPN brings up the paper's defense on the victim: a tunnel to
// the trusted endpoint carrying (by default) all traffic. Call after the
// victim associates; done fires on up/down.
func (w *World) EnableVictimVPN(split []inet.Prefix, done func(err error)) {
	if w.VPNServer == nil {
		panic("core: world built without VPNServer")
	}
	w.Victim.TCP.MSS = vpn.InnerMSS
	cfg := vpn.ClientConfig{
		PSK:                 w.vpnPSK(),
		Server:              inet.HostPort{Addr: VPNEndpointIP, Port: vpn.DefaultPort},
		SplitTunnelPrefixes: split,
		Keepalive:           w.Cfg.VPNKeepalive,
	}
	var cli *vpn.Client
	var err error
	switch {
	case w.Cfg.Overlay:
		cli, err = vpn.ConnectOverlay(w.Victim.IP, w.OverlayClient, cfg)
	case w.Cfg.VPNCarrier == vpn.CarrierUDP:
		cli, err = vpn.ConnectUDP(w.Victim.IP, w.Victim.UDP, cfg)
	default:
		cli, err = vpn.ConnectTCP(w.Victim.IP, w.Victim.TCP, cfg)
	}
	if err != nil {
		done(err)
		return
	}
	w.VictimVPN = cli
	cli.OnUp = func(ip inet.Addr) { done(nil) }
	cli.OnDown = func(err error) { done(err) }
}

// Run advances the world by d of virtual time.
func (w *World) Run(d sim.Time) { w.Kernel.RunFor(d) }

// VictimConnect starts the victim's association process.
func (w *World) VictimConnect() { w.Victim.STA.Connect() }

// VictimOnRogue reports whether the victim is currently associated to the
// rogue AP (by channel, since the BSSID may be cloned).
func (w *World) VictimOnRogue() bool {
	if w.Rogue == nil {
		return false
	}
	return w.Victim.STA.State() == dot11.StateAssociated &&
		w.Victim.STA.BSS().Channel == RogueChannel
}

// VictimAssociated reports whether the victim is associated to anything.
func (w *World) VictimAssociated() bool {
	return w.Victim.STA.State() == dot11.StateAssociated
}
