package vpn

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/ipv4"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/udp"
)

func TestSealOpenRoundTrip(t *testing.T) {
	keys := deriveKeys([]byte("psk"), []byte("nc"), []byte("ns"))
	s := newSealer(keys.encC2S, keys.macC2S[:])
	o := newOpener(keys.encC2S, keys.macC2S[:])
	for i := 0; i < 10; i++ {
		msg := []byte("inner ip packet payload")
		rec := s.seal(msg)
		got, err := o.open(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round trip %d: %q", i, got)
		}
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	keys := deriveKeys([]byte("psk"), []byte("nc"), []byte("ns"))
	s := newSealer(keys.encC2S, keys.macC2S[:])
	o := newOpener(keys.encC2S, keys.macC2S[:])
	rec := s.seal([]byte("do not touch"))
	rec[10] ^= 0x01
	if _, err := o.open(rec); err != ErrRecordMAC {
		t.Fatalf("err = %v, want ErrRecordMAC", err)
	}
	if o.MACFailures != 1 {
		t.Fatal("MAC failure not counted")
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	k1 := deriveKeys([]byte("psk1"), []byte("nc"), []byte("ns"))
	k2 := deriveKeys([]byte("psk2"), []byte("nc"), []byte("ns"))
	s := newSealer(k1.encC2S, k1.macC2S[:])
	o := newOpener(k2.encC2S, k2.macC2S[:])
	if _, err := o.open(s.seal([]byte("x"))); err != ErrRecordMAC {
		t.Fatalf("err = %v", err)
	}
}

func TestOpenRejectsReplay(t *testing.T) {
	keys := deriveKeys([]byte("psk"), []byte("nc"), []byte("ns"))
	s := newSealer(keys.encC2S, keys.macC2S[:])
	o := newOpener(keys.encC2S, keys.macC2S[:])
	rec := s.seal([]byte("once"))
	if _, err := o.open(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := o.open(rec); err != ErrReplay {
		t.Fatalf("replay err = %v", err)
	}
	if o.Replays != 1 {
		t.Fatal("replay not counted")
	}
}

func TestReplayWindowOutOfOrderOK(t *testing.T) {
	keys := deriveKeys([]byte("psk"), []byte("nc"), []byte("ns"))
	s := newSealer(keys.encC2S, keys.macC2S[:])
	o := newOpener(keys.encC2S, keys.macC2S[:])
	var recs [][]byte
	for i := 0; i < 10; i++ {
		recs = append(recs, s.seal([]byte{byte(i)}))
	}
	// Deliver out of order: 0,3,1,2,9,5.
	for _, i := range []int{0, 3, 1, 2, 9, 5} {
		if _, err := o.open(recs[i]); err != nil {
			t.Fatalf("record %d rejected: %v", i, err)
		}
	}
	// Now replay 3.
	if _, err := o.open(recs[3]); err != ErrReplay {
		t.Fatalf("replayed 3: err = %v", err)
	}
}

func TestReplayWindowTooOld(t *testing.T) {
	keys := deriveKeys([]byte("psk"), []byte("nc"), []byte("ns"))
	s := newSealer(keys.encC2S, keys.macC2S[:])
	o := newOpener(keys.encC2S, keys.macC2S[:])
	old := s.seal([]byte("old"))
	for i := 0; i < 100; i++ {
		if _, err := o.open(s.seal([]byte("new"))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := o.open(old); err != ErrReplay {
		t.Fatalf("ancient record: err = %v", err)
	}
}

func TestQuickSealOpen(t *testing.T) {
	keys := deriveKeys([]byte("q"), []byte("nc"), []byte("ns"))
	s := newSealer(keys.encC2S, keys.macC2S[:])
	o := newOpener(keys.encC2S, keys.macC2S[:])
	f := func(payload []byte) bool {
		got, err := o.open(s.seal(payload))
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveKeysDistinct(t *testing.T) {
	k := deriveKeys([]byte("psk"), []byte("nc"), []byte("ns"))
	if k.encC2S == k.encS2C {
		t.Fatal("directional enc keys equal")
	}
	if bytes.Equal(k.macC2S[:], k.macS2C[:]) {
		t.Fatal("directional mac keys equal")
	}
	k2 := deriveKeys([]byte("psk"), []byte("nc2"), []byte("ns"))
	if k.encC2S == k2.encC2S {
		t.Fatal("nonce change did not change keys")
	}
}

func TestFrameStreamReassembly(t *testing.T) {
	var fs frameStream
	msg1 := frame(msgData, []byte("hello"))
	msg2 := frame(msgClientHello, []byte("world!"))
	joined := append(append([]byte(nil), msg1...), msg2...)
	var got [][]byte
	// Push byte by byte.
	for _, b := range joined {
		got = append(got, fs.push([]byte{b})...)
	}
	if len(got) != 2 {
		t.Fatalf("got %d messages", len(got))
	}
	if got[0][0] != msgData || string(got[0][1:]) != "hello" {
		t.Fatalf("msg1 %q", got[0])
	}
	if got[1][0] != msgClientHello || string(got[1][1:]) != "world!" {
		t.Fatalf("msg2 %q", got[1])
	}
}

// TestFrameStreamSkipsZeroLength pins the reassembler on a zero length
// prefix, which frame never writes: it yields no (empty) message and the
// stream stays in step for the frame after it.
func TestFrameStreamSkipsZeroLength(t *testing.T) {
	var fs frameStream
	in := append([]byte{0, 0}, frame(msgData, []byte("next"))...)
	got := fs.push(in)
	if len(got) != 1 || got[0][0] != msgData || string(got[0][1:]) != "next" {
		t.Fatalf("got %q, want the one data message after the empty prefix", got)
	}
}

// vpnWorld: client host —sw— server host. Minimal wired topology to test the
// tunnel machinery itself (integration through wireless is in core).
type vpnWorld struct {
	k        *sim.Kernel
	clientIP *ipv4.Stack
	serverIP *ipv4.Stack
	ctcp     *tcp.Stack
	stcp     *tcp.Stack
	cudp     *udp.Stack
	sudp     *udp.Stack
	// webIP is a third host reachable only via the server (forwarding).
	webIP  *ipv4.Stack
	webTCP *tcp.Stack
}

func newVPNWorld(t *testing.T) *vpnWorld {
	t.Helper()
	k := sim.NewKernel(1)
	var alloc ethernet.MACAllocator
	swA := ethernet.NewSwitch(k, &alloc, ethernet.SwitchConfig{})
	swB := ethernet.NewSwitch(k, &alloc, ethernet.SwitchConfig{})

	clientIP := ipv4.NewStack(k, "client")
	clientIP.AddIface("eth0", swA.Attach(alloc.Next()), inet.MustParseAddr("10.0.1.2"), inet.MustParsePrefix("10.0.1.0/24"))
	clientIP.AddDefaultRoute(inet.MustParseAddr("10.0.1.1"), "eth0")

	serverIP := ipv4.NewStack(k, "vpn-endpoint")
	serverIP.Forwarding = true
	serverIP.AddIface("eth0", swA.Attach(alloc.Next()), inet.MustParseAddr("10.0.1.1"), inet.MustParsePrefix("10.0.1.0/24"))
	serverIP.AddIface("eth1", swB.Attach(alloc.Next()), inet.MustParseAddr("10.0.2.1"), inet.MustParsePrefix("10.0.2.0/24"))

	webIP := ipv4.NewStack(k, "web")
	webIP.AddIface("eth0", swB.Attach(alloc.Next()), inet.MustParseAddr("10.0.2.2"), inet.MustParsePrefix("10.0.2.0/24"))
	webIP.AddDefaultRoute(inet.MustParseAddr("10.0.2.1"), "eth0")

	w := &vpnWorld{
		k: k, clientIP: clientIP, serverIP: serverIP, webIP: webIP,
		ctcp: tcp.NewStack(clientIP), stcp: tcp.NewStack(serverIP),
		cudp: udp.NewStack(clientIP), sudp: udp.NewStack(serverIP),
		webTCP: tcp.NewStack(webIP),
	}
	w.ctcp.MSS = InnerMSS
	return w
}

var vpnServerHP = inet.MustParseHostPort("10.0.1.1:4789")

func TestTunnelHandshakeTCP(t *testing.T) {
	w := newVPNWorld(t)
	srv, err := NewServerTCP(w.serverIP, w.stcp, ServerConfig{PSK: []byte("secret")})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := ConnectTCP(w.clientIP, w.ctcp, ClientConfig{PSK: []byte("secret"), Server: vpnServerHP})
	if err != nil {
		t.Fatal(err)
	}
	var up inet.Addr
	cli.OnUp = func(ip inet.Addr) { up = ip }
	w.k.RunUntil(10 * sim.Second)
	if !cli.Up() {
		t.Fatal("tunnel not up")
	}
	if up.IsUnspecified() || !inet.MustParsePrefix("10.99.0.0/24").Contains(up) {
		t.Fatalf("assigned IP %v", up)
	}
	if srv.Handshakes != 1 {
		t.Fatalf("Handshakes = %d", srv.Handshakes)
	}
}

func TestTunnelWrongPSKRejected(t *testing.T) {
	w := newVPNWorld(t)
	srv, _ := NewServerTCP(w.serverIP, w.stcp, ServerConfig{PSK: []byte("secret")})
	cli, _ := ConnectTCP(w.clientIP, w.ctcp, ClientConfig{PSK: []byte("WRONG"), Server: vpnServerHP})
	var downErr error
	cli.OnDown = func(err error) { downErr = err }
	w.k.RunUntil(30 * sim.Second)
	if cli.Up() {
		t.Fatal("tunnel came up with mismatched PSK")
	}
	if downErr != ErrServerAuth {
		t.Fatalf("downErr = %v, want ErrServerAuth (client must authenticate the endpoint)", downErr)
	}
	_ = srv
}

func TestTunnelImpostorServerRejected(t *testing.T) {
	// An attacker-run endpoint (different PSK) fails *server*
	// authentication before the client reveals anything but a nonce.
	w := newVPNWorld(t)
	_, _ = NewServerTCP(w.serverIP, w.stcp, ServerConfig{PSK: []byte("attacker-psk")})
	cli, _ := ConnectTCP(w.clientIP, w.ctcp, ClientConfig{PSK: []byte("the-real-psk"), Server: vpnServerHP})
	var downErr error
	cli.OnDown = func(err error) { downErr = err }
	w.k.RunUntil(30 * sim.Second)
	if downErr != ErrServerAuth {
		t.Fatalf("downErr = %v", downErr)
	}
}

// endToEnd fetches data from the web host through the tunnel and returns
// the bytes received.
func endToEnd(t *testing.T, w *vpnWorld, carrier Carrier) []byte {
	t.Helper()
	var srv *Server
	var cli *Client
	var err error
	cfgS := ServerConfig{PSK: []byte("secret"), Carrier: carrier}
	cfgC := ClientConfig{PSK: []byte("secret"), Server: vpnServerHP, Carrier: carrier}
	if carrier == CarrierTCP {
		srv, err = NewServerTCP(w.serverIP, w.stcp, cfgS)
	} else {
		srv, err = NewServerUDP(w.serverIP, w.sudp, cfgS)
	}
	if err != nil {
		t.Fatal(err)
	}
	_ = srv
	// Web server app.
	l, _ := w.webTCP.Listen(80)
	l.OnAccept = func(c *tcp.Conn) {
		c.OnData = func(b []byte) {
			_ = c.Write(append([]byte("web:"), b...))
			c.Close()
		}
	}
	// Route back to tunnel subnet via the endpoint (its own default gw).
	// webIP default route already points at serverIP.

	if carrier == CarrierTCP {
		cli, err = ConnectTCP(w.clientIP, w.ctcp, cfgC)
	} else {
		cli, err = ConnectUDP(w.clientIP, w.cudp, cfgC)
	}
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	cli.OnUp = func(ip inet.Addr) {
		conn, err := w.ctcp.Dial(inet.MustParseHostPort("10.0.2.2:80"))
		if err != nil {
			t.Errorf("dial through tunnel: %v", err)
			return
		}
		conn.OnConnect = func() { _ = conn.Write([]byte("hello")) }
		conn.OnData = func(b []byte) { got = append(got, b...) }
	}
	w.k.RunUntil(30 * sim.Second)
	return got
}

func TestEndToEndThroughTunnelTCP(t *testing.T) {
	w := newVPNWorld(t)
	if got := endToEnd(t, w, CarrierTCP); string(got) != "web:hello" {
		t.Fatalf("got %q", got)
	}
}

func TestEndToEndThroughTunnelUDP(t *testing.T) {
	w := newVPNWorld(t)
	if got := endToEnd(t, w, CarrierUDP); string(got) != "web:hello" {
		t.Fatalf("got %q", got)
	}
}

func TestTrafficActuallyUsesTunnel(t *testing.T) {
	// The inner connection's packets must appear on the wire only as
	// encrypted records to the VPN port, never as cleartext TCP to the web
	// server: that is the paper's whole point.
	w := newVPNWorld(t)
	sawCleartextToWeb := false
	w.clientIP.AddHook(hookFunc(func(point ipv4.HookPoint, pkt *ipv4.Packet, in, out string) ipv4.Verdict {
		if point == ipv4.HookPostrouting && out == "eth0" &&
			pkt.Dst == inet.MustParseAddr("10.0.2.2") {
			sawCleartextToWeb = true
		}
		return ipv4.VerdictAccept
	}))
	if got := endToEnd(t, w, CarrierTCP); string(got) != "web:hello" {
		t.Fatalf("got %q", got)
	}
	if sawCleartextToWeb {
		t.Fatal("inner traffic left the client outside the tunnel")
	}
}

type hookFunc func(point ipv4.HookPoint, pkt *ipv4.Packet, in, out string) ipv4.Verdict

func (f hookFunc) Filter(point ipv4.HookPoint, pkt *ipv4.Packet, in, out string) ipv4.Verdict {
	return f(point, pkt, in, out)
}

func TestSplitTunnelLeaksOtherTraffic(t *testing.T) {
	// E3 ablation: with a split tunnel covering only 10.0.3.0/24, traffic
	// to the web host still crosses the wireless side in the clear.
	w := newVPNWorld(t)
	_, _ = NewServerTCP(w.serverIP, w.stcp, ServerConfig{PSK: []byte("secret")})
	cli, _ := ConnectTCP(w.clientIP, w.ctcp, ClientConfig{
		PSK: []byte("secret"), Server: vpnServerHP,
		SplitTunnelPrefixes: []inet.Prefix{inet.MustParsePrefix("10.0.3.0/24")},
	})
	sawCleartextToWeb := false
	w.clientIP.AddHook(hookFunc(func(point ipv4.HookPoint, pkt *ipv4.Packet, in, out string) ipv4.Verdict {
		if point == ipv4.HookPostrouting && out == "eth0" && pkt.Dst == inet.MustParseAddr("10.0.2.2") {
			sawCleartextToWeb = true
		}
		return ipv4.VerdictAccept
	}))
	l, _ := w.webTCP.Listen(80)
	l.OnAccept = func(c *tcp.Conn) { c.OnData = func(b []byte) { _ = c.Write([]byte("x")) } }
	done := false
	cli.OnUp = func(ip inet.Addr) {
		conn, _ := w.ctcp.Dial(inet.MustParseHostPort("10.0.2.2:80"))
		conn.OnConnect = func() { _ = conn.Write([]byte("q")) }
		conn.OnData = func(b []byte) { done = true }
	}
	w.k.RunUntil(30 * sim.Second)
	if !done {
		t.Fatal("split-tunnel connection failed entirely")
	}
	if !sawCleartextToWeb {
		t.Fatal("expected cleartext leak under split tunnel")
	}
}

func TestOnPathTamperingDetected(t *testing.T) {
	// A middlebox flips bits in tunnel records; the client's opener must
	// reject them and count the tampering.
	w := newVPNWorld(t)
	tampered := 0
	tunnelUp := false
	w.serverIP.AddHook(hookFunc(func(point ipv4.HookPoint, pkt *ipv4.Packet, in, out string) ipv4.Verdict {
		// Corrupt some server->client carrier payloads as they leave —
		// but only after the handshake, so the tunnel establishes first.
		if tunnelUp && point == ipv4.HookPostrouting && out == "eth0" && pkt.Proto == ipv4.ProtoTCP &&
			len(pkt.Payload) > 200 && tampered < 3 {
			pkt.Payload[100] ^= 0xff
			tampered++
			// Note: TCP checksum now wrong; fix it so the segment reaches
			// the VPN layer (modelling an attacker who fixes checksums).
			fixTCPChecksum(pkt)
		}
		return ipv4.VerdictAccept
	}))
	_, _ = NewServerTCP(w.serverIP, w.stcp, ServerConfig{PSK: []byte("secret")})
	l, _ := w.webTCP.Listen(80)
	l.OnAccept = func(c *tcp.Conn) {
		c.OnData = func(b []byte) { _ = c.Write(make([]byte, 5000)); c.Close() }
	}
	cli, _ := ConnectTCP(w.clientIP, w.ctcp, ClientConfig{PSK: []byte("secret"), Server: vpnServerHP})
	cli.OnUp = func(ip inet.Addr) {
		tunnelUp = true
		conn, _ := w.ctcp.Dial(inet.MustParseHostPort("10.0.2.2:80"))
		conn.OnConnect = func() { _ = conn.Write([]byte("get")) }
		conn.OnData = func(b []byte) {}
	}
	w.k.RunUntil(sim.Minute)
	if tampered == 0 {
		t.Skip("no packets crossed the tamper window")
	}
	if cli.TamperDetected() == 0 {
		t.Fatal("tampering went undetected by the tunnel MAC")
	}
}

func fixTCPChecksum(pkt *ipv4.Packet) {
	if len(pkt.Payload) < 18 {
		return
	}
	pkt.Payload[16], pkt.Payload[17] = 0, 0
	sum := inet.PseudoHeaderSum(pkt.Src, pkt.Dst, pkt.Proto, uint16(len(pkt.Payload)))
	sum = inet.SumBytes(sum, pkt.Payload)
	cs := inet.FinishChecksum(sum)
	pkt.Payload[16], pkt.Payload[17] = byte(cs>>8), byte(cs)
}

func TestCarrierString(t *testing.T) {
	if CarrierTCP.String() != "tcp" || CarrierUDP.String() != "udp" {
		t.Fatal("carrier names")
	}
}

// open() must never panic on arbitrary records; it faces attacker bytes.
func TestQuickOpenNoPanic(t *testing.T) {
	keys := deriveKeys([]byte("psk"), []byte("nc"), []byte("ns"))
	o := newOpener(keys.encC2S, keys.macC2S[:])
	f := func(b []byte) bool {
		_, _ = o.open(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// frameStream must never panic and must never emit partial messages.
func TestQuickFrameStreamNoPanic(t *testing.T) {
	f := func(chunks [][]byte) bool {
		var fs frameStream
		for _, c := range chunks {
			for _, m := range fs.push(c) {
				if len(m) == 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// clampMSS must never panic on arbitrary "IP packets".
func TestQuickClampMSSNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		_ = clampMSS(b, InnerMSS)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
