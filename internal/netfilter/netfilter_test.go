package netfilter

import (
	"testing"
	"testing/quick"

	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/ipv4"
	"repro/internal/sim"
	"repro/internal/tcp"
)

func TestParseIptablesPaperCommand(t *testing.T) {
	// The exact command from the paper's §4.1.
	tbl := New()
	r, err := tbl.ParseIptables(
		"iptables -t nat -A PREROUTING -p tcp -d 10.0.0.80 --dport 80 -j DNAT --to 10.0.0.254:10101")
	if err != nil {
		t.Fatal(err)
	}
	if r.Target != TargetDNAT {
		t.Fatalf("target %v", r.Target)
	}
	if r.Match.Proto != ipv4.ProtoTCP || r.Match.DstPort != 80 {
		t.Fatalf("match %+v", r.Match)
	}
	if !r.Match.Dst.Contains(inet.MustParseAddr("10.0.0.80")) || r.Match.Dst.Bits != 32 {
		t.Fatalf("dst %v", r.Match.Dst)
	}
	if r.NATTo != inet.MustParseHostPort("10.0.0.254:10101") {
		t.Fatalf("to %v", r.NATTo)
	}
	if len(tbl.Rules(ipv4.HookPrerouting)) != 1 {
		t.Fatal("rule not appended to PREROUTING")
	}
}

func TestParseIptablesVariants(t *testing.T) {
	tbl := New()
	ok := []string{
		"-A INPUT -j DROP",
		"-A FORWARD -p udp --sport 53 -j ACCEPT",
		"-A OUTPUT -s 10.0.0.0/8 -j ACCEPT",
		"-A POSTROUTING -o eth1 -j SNAT --to-source 1.2.3.4",
		"iptables -A PREROUTING -i wlan0 -p icmp -j DROP",
	}
	for _, cmd := range ok {
		if _, err := tbl.ParseIptables(cmd); err != nil {
			t.Errorf("ParseIptables(%q): %v", cmd, err)
		}
	}
	bad := []string{
		"",
		"-A NOWHERE -j DROP",
		"-A INPUT -j TEAPOT",
		"-A INPUT -p carrier-pigeon -j DROP",
		"-A INPUT --dport notaport -j DROP",
		"-A PREROUTING -j DNAT", // missing --to
		"-A INPUT -x wat",
		"-A INPUT -d",
	}
	for _, cmd := range bad {
		if _, err := tbl.ParseIptables(cmd); err == nil {
			t.Errorf("ParseIptables(%q) accepted", cmd)
		}
	}
}

func TestMatchFields(t *testing.T) {
	dst := inet.MustParsePrefix("10.0.0.80/32")
	r := Rule{Match: Match{Proto: ipv4.ProtoTCP, Dst: &dst, DstPort: 80}}
	mk := func(proto uint8, dstIP string, dport uint16) *ipv4.Packet {
		payload := make([]byte, 20)
		payload[2] = byte(dport >> 8)
		payload[3] = byte(dport)
		return &ipv4.Packet{Proto: proto, Src: inet.MustParseAddr("10.0.0.3"),
			Dst: inet.MustParseAddr(dstIP), Payload: payload}
	}
	if !r.matches(mk(ipv4.ProtoTCP, "10.0.0.80", 80), "", "") {
		t.Error("exact match failed")
	}
	if r.matches(mk(ipv4.ProtoUDP, "10.0.0.80", 80), "", "") {
		t.Error("wrong proto matched")
	}
	if r.matches(mk(ipv4.ProtoTCP, "10.0.0.81", 80), "", "") {
		t.Error("wrong dst matched")
	}
	if r.matches(mk(ipv4.ProtoTCP, "10.0.0.80", 443), "", "") {
		t.Error("wrong port matched")
	}
}

func TestIfaceMatch(t *testing.T) {
	r := Rule{Match: Match{InIface: "wlan0"}}
	pkt := &ipv4.Packet{Proto: ipv4.ProtoICMP}
	if !r.matches(pkt, "wlan0", "") {
		t.Error("iface match failed")
	}
	if r.matches(pkt, "eth1", "") {
		t.Error("wrong iface matched")
	}
}

// gatewayWorld: client —sw1— gateway(fw, forwarding) —sw2— {server, proxy host}.
// The gateway DNATs server:80 to proxy:10101.
type gatewayWorld struct {
	k               *sim.Kernel
	client          *tcp.Stack
	gatewayFW       *Table
	server          *tcp.Stack
	proxyOnGateway  *tcp.Stack
	clientIP, svrIP inet.Addr
	gwClientSide    inet.Addr
}

func newGatewayWorld(t *testing.T) *gatewayWorld {
	t.Helper()
	k := sim.NewKernel(1)
	var alloc ethernet.MACAllocator
	sw1 := ethernet.NewSwitch(k, &alloc)
	sw2 := ethernet.NewSwitch(k, &alloc)

	clientIP := inet.MustParseAddr("10.0.1.2")
	gwA := inet.MustParseAddr("10.0.1.1")
	gwB := inet.MustParseAddr("10.0.2.1")
	svrIP := inet.MustParseAddr("10.0.2.2")

	ipClient := ipv4.NewStack(k, "client")
	ipClient.AddIface("eth0", sw1.Attach(alloc.Next()), clientIP, inet.MustParsePrefix("10.0.1.0/24"))
	ipClient.AddDefaultRoute(gwA, "eth0")

	ipGW := ipv4.NewStack(k, "gateway")
	ipGW.Forwarding = true
	ipGW.AddIface("wlan0", sw1.Attach(alloc.Next()), gwA, inet.MustParsePrefix("10.0.1.0/24"))
	ipGW.AddIface("eth1", sw2.Attach(alloc.Next()), gwB, inet.MustParsePrefix("10.0.2.0/24"))
	fw := New()
	ipGW.AddHook(fw)

	ipSvr := ipv4.NewStack(k, "server")
	ipSvr.AddIface("eth0", sw2.Attach(alloc.Next()), svrIP, inet.MustParsePrefix("10.0.2.0/24"))
	ipSvr.AddDefaultRoute(gwB, "eth0")

	return &gatewayWorld{
		k:              k,
		client:         tcp.NewStack(ipClient),
		gatewayFW:      fw,
		server:         tcp.NewStack(ipSvr),
		proxyOnGateway: tcp.NewStack(ipGW),
		clientIP:       clientIP,
		svrIP:          svrIP,
		gwClientSide:   gwA,
	}
}

func TestDNATRedirectsToLocalProxy(t *testing.T) {
	// Reproduces the paper's redirect: client connects to server:80, the
	// gateway DNATs it to its own :10101 where a local listener answers.
	// The client must believe it is talking to the server.
	w := newGatewayWorld(t)
	cmd := "iptables -t nat -A PREROUTING -p tcp -d " + w.svrIP.String() +
		" --dport 80 -j DNAT --to " + w.gwClientSide.String() + ":10101"
	if _, err := w.gatewayFW.ParseIptables(cmd); err != nil {
		t.Fatal(err)
	}
	l, err := w.proxyOnGateway.Listen(10101)
	if err != nil {
		t.Fatal(err)
	}
	l.OnAccept = func(c *tcp.Conn) {
		c.OnData = func(b []byte) {
			_ = c.Write([]byte("proxied:" + string(b)))
			c.Close()
		}
	}
	// Real server also listens — it must NOT get the connection.
	sl, _ := w.server.Listen(80)
	serverGot := false
	sl.OnAccept = func(c *tcp.Conn) { serverGot = true }

	c, err := w.client.Dial(inet.HostPort{Addr: w.svrIP, Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	c.OnConnect = func() { _ = c.Write([]byte("GET")) }
	c.OnData = func(b []byte) { got = append(got, b...) }
	w.k.RunUntil(10 * sim.Second)

	if string(got) != "proxied:GET" {
		t.Fatalf("client got %q", got)
	}
	if serverGot {
		t.Fatal("real server received the DNATed connection")
	}
	if c.RemoteAddr().Addr != w.svrIP {
		t.Fatal("client's view of the server address changed (NAT must be transparent)")
	}
	if w.gatewayFW.Translations == 0 {
		t.Fatal("no conntrack translations recorded")
	}
}

func TestDNATOnlyMatchingPortRedirected(t *testing.T) {
	w := newGatewayWorld(t)
	_, _ = w.gatewayFW.ParseIptables(
		"iptables -t nat -A PREROUTING -p tcp -d " + w.svrIP.String() +
			" --dport 80 -j DNAT --to " + w.gwClientSide.String() + ":10101")
	// Traffic to port 443 must reach the real server untouched.
	sl, _ := w.server.Listen(443)
	var serverGot []byte
	sl.OnAccept = func(c *tcp.Conn) {
		c.OnData = func(b []byte) {
			serverGot = append(serverGot, b...)
			_ = c.Write([]byte("real"))
		}
	}
	c, _ := w.client.Dial(inet.HostPort{Addr: w.svrIP, Port: 443})
	var got []byte
	c.OnConnect = func() { _ = c.Write([]byte("tls-hello")) }
	c.OnData = func(b []byte) { got = append(got, b...) }
	w.k.RunUntil(10 * sim.Second)
	if string(serverGot) != "tls-hello" || string(got) != "real" {
		t.Fatalf("server got %q, client got %q", serverGot, got)
	}
}

func TestDropRuleBlocksForwarding(t *testing.T) {
	w := newGatewayWorld(t)
	_, _ = w.gatewayFW.ParseIptables("-A FORWARD -p tcp -j DROP")
	sl, _ := w.server.Listen(80)
	sl.OnAccept = func(c *tcp.Conn) {}
	c, _ := w.client.Dial(inet.HostPort{Addr: w.svrIP, Port: 80})
	connected := false
	c.OnConnect = func() { connected = true }
	w.k.RunUntil(30 * sim.Second)
	if connected {
		t.Fatal("connection crossed a DROP FORWARD rule")
	}
	if w.gatewayFW.Drops == 0 {
		t.Fatal("no drops counted")
	}
}

func TestSNATMasquerades(t *testing.T) {
	w := newGatewayWorld(t)
	_, _ = w.gatewayFW.ParseIptables(
		"-A POSTROUTING -p tcp -o eth1 -j SNAT --to-source 10.0.2.1")
	sl, _ := w.server.Listen(80)
	var seenFrom inet.Addr
	sl.OnAccept = func(c *tcp.Conn) {
		seenFrom = c.RemoteAddr().Addr
		c.OnData = func(b []byte) { _ = c.Write([]byte("hi")) }
	}
	c, _ := w.client.Dial(inet.HostPort{Addr: w.svrIP, Port: 80})
	var got []byte
	c.OnConnect = func() { _ = c.Write([]byte("x")) }
	c.OnData = func(b []byte) { got = append(got, b...) }
	w.k.RunUntil(10 * sim.Second)
	if seenFrom != inet.MustParseAddr("10.0.2.1") {
		t.Fatalf("server saw source %v, want the gateway's (SNAT)", seenFrom)
	}
	if string(got) != "hi" {
		t.Fatalf("reply did not reach client through reverse NAT: %q", got)
	}
}

func TestRuleCountersAdvance(t *testing.T) {
	w := newGatewayWorld(t)
	r, _ := w.gatewayFW.ParseIptables("-A FORWARD -p tcp -j ACCEPT")
	sl, _ := w.server.Listen(80)
	sl.OnAccept = func(c *tcp.Conn) {}
	c, _ := w.client.Dial(inet.HostPort{Addr: w.svrIP, Port: 80})
	_ = c
	w.k.RunUntil(5 * sim.Second)
	if r.Packets == 0 || r.Bytes == 0 {
		t.Fatalf("counters pkt=%d bytes=%d", r.Packets, r.Bytes)
	}
}

func TestTargetString(t *testing.T) {
	for tgt, want := range map[Target]string{
		TargetAccept: "ACCEPT", TargetDrop: "DROP", TargetDNAT: "DNAT", TargetSNAT: "SNAT",
	} {
		if tgt.String() != want {
			t.Errorf("%d = %q", tgt, tgt.String())
		}
	}
}

// ParseIptables must never panic on arbitrary command lines.
func TestQuickParseIptablesNoPanic(t *testing.T) {
	tbl := New()
	f := func(s string) bool {
		_, _ = tbl.ParseIptables(s)
		_, _ = tbl.ParseIptables("-A INPUT " + s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
