package vpn

import (
	"testing"

	"repro/internal/inet"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// keepaliveCfg is a fast DPD configuration for tests: probe every second,
// declare the peer dead after 3 s of silence.
func keepaliveCfg() ClientConfig {
	return ClientConfig{
		PSK: []byte("secret"), Server: vpnServerHP,
		Keepalive: sim.Second,
	}
}

// TestKeepaliveProbesFlow proves the liveness loop itself: an idle tunnel
// exchanges sealed probes in both directions and never trips DPD.
func TestKeepaliveProbesFlow(t *testing.T) {
	w := newVPNWorld(t)
	srv, err := NewServerUDP(w.serverIP, w.sudp, ServerConfig{PSK: []byte("secret")})
	if err != nil {
		t.Fatal(err)
	}
	cfg := keepaliveCfg()
	cli, err := ConnectUDP(w.clientIP, w.cudp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.k.RunUntil(20 * sim.Second)
	if !cli.Up() {
		t.Fatal("tunnel not up")
	}
	if cli.KeepalivesSent < 10 {
		t.Errorf("KeepalivesSent = %d over ~20 s of 1 s probes", cli.KeepalivesSent)
	}
	if srv.Keepalives != cli.KeepalivesSent {
		t.Errorf("server answered %d of %d probes", srv.Keepalives, cli.KeepalivesSent)
	}
	if cli.PeerTimeouts != 0 || cli.Reconnects != 0 {
		t.Errorf("healthy peer declared dead: PeerTimeouts=%d Reconnects=%d",
			cli.PeerTimeouts, cli.Reconnects)
	}
}

// TestDeadPeerRecoversUDP is the satellite's core guarantee: the server host
// drops off the network mid-session, the client detects the dead peer via
// DPD, redials with backoff, and once the server is reachable again the
// REKEYED session (fresh nonces, fresh keys, same tunnel address) carries
// traffic that decrypts correctly end to end.
func TestDeadPeerRecoversUDP(t *testing.T) {
	w := newVPNWorld(t)
	srv, err := NewServerUDP(w.serverIP, w.sudp, ServerConfig{PSK: []byte("secret")})
	if err != nil {
		t.Fatal(err)
	}
	cfg := keepaliveCfg()
	cli, err := ConnectUDP(w.clientIP, w.cudp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	terminalDown := false
	cli.OnDown = func(error) { terminalDown = true }

	w.k.RunUntil(5 * sim.Second)
	if !cli.Up() {
		t.Fatal("tunnel not up before the outage")
	}
	firstIP := cli.TunnelIP()

	// The server host vanishes (unplugged router) for 15 s.
	w.serverIP.SetPartitioned(true)
	w.k.RunUntil(15 * sim.Second)
	if cli.PeerTimeouts == 0 {
		t.Fatal("dead peer never detected")
	}
	if cli.Up() {
		t.Fatal("client still claims Up against a partitioned server")
	}
	if !cli.Healing() {
		t.Fatal("client not in the self-healing loop")
	}
	if cli.Reconnects == 0 {
		t.Fatal("no redial attempted during the outage")
	}
	if terminalDown {
		t.Fatal("self-healing fired OnDown — outage treated as terminal")
	}

	w.k.At(20*sim.Second, func() { w.serverIP.SetPartitioned(false) })
	w.k.RunUntil(60 * sim.Second)
	if !cli.Up() {
		t.Fatalf("tunnel did not recover: PeerTimeouts=%d Reconnects=%d Rekeys=%d",
			cli.PeerTimeouts, cli.Reconnects, cli.Rekeys)
	}
	if cli.Rekeys == 0 || srv.Rekeys == 0 {
		t.Errorf("recovery did not rekey (client %d, server %d)", cli.Rekeys, srv.Rekeys)
	}
	if cli.TunnelIP() != firstIP {
		t.Errorf("tunnel address changed across rekey: %v -> %v (routes would dangle)",
			firstIP, cli.TunnelIP())
	}
	if terminalDown {
		t.Fatal("OnDown fired during a successful self-heal")
	}

	// The rekeyed session must actually decrypt: fetch through the tunnel.
	var got []byte
	l, _ := w.webTCP.Listen(80)
	l.OnAccept = func(c *tcp.Conn) {
		c.OnData = func(b []byte) {
			_ = c.Write(append([]byte("web:"), b...))
			c.Close()
		}
	}
	conn, err := w.ctcp.Dial(inet.MustParseHostPort("10.0.2.2:80"))
	if err != nil {
		t.Fatal(err)
	}
	conn.OnConnect = func() { _ = conn.Write([]byte("post-rekey")) }
	conn.OnData = func(b []byte) { got = append(got, b...) }
	w.k.RunUntil(90 * sim.Second)
	if string(got) != "web:post-rekey" {
		t.Fatalf("through rekeyed tunnel got %q", got)
	}
}

// TestDeadPeerRecoversTCP runs the same outage over the TCP carrier, where
// recovery additionally needs a fresh carrier connection (the old one is
// half-open against a silent host).
func TestDeadPeerRecoversTCP(t *testing.T) {
	w := newVPNWorld(t)
	srv, err := NewServerTCP(w.serverIP, w.stcp, ServerConfig{PSK: []byte("secret")})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := ConnectTCP(w.clientIP, w.ctcp, keepaliveCfg())
	if err != nil {
		t.Fatal(err)
	}
	terminalDown := false
	cli.OnDown = func(error) { terminalDown = true }

	w.k.RunUntil(5 * sim.Second)
	if !cli.Up() {
		t.Fatal("tunnel not up before the outage")
	}
	w.serverIP.SetPartitioned(true)
	w.k.RunUntil(15 * sim.Second)
	if cli.PeerTimeouts == 0 {
		t.Fatal("dead peer never detected over TCP carrier")
	}
	w.k.At(20*sim.Second, func() { w.serverIP.SetPartitioned(false) })
	w.k.RunUntil(90 * sim.Second)
	if !cli.Up() {
		t.Fatalf("TCP-carrier tunnel did not recover: PeerTimeouts=%d Reconnects=%d",
			cli.PeerTimeouts, cli.Reconnects)
	}
	if cli.Rekeys == 0 {
		t.Error("TCP recovery did not rekey")
	}
	if terminalDown {
		t.Fatal("OnDown fired during TCP self-heal")
	}
	if srv.Handshakes < 2 {
		t.Errorf("server Handshakes = %d, want >= 2 (initial + rekey)", srv.Handshakes)
	}
}

// TestKeepaliveDeterministic replays the full outage-and-recovery cycle and
// asserts digest equality: DPD timers, backoff jitter, and rekeying are all
// seeded, so chaos is reproducible.
func TestKeepaliveDeterministic(t *testing.T) {
	run := func() uint64 {
		w := newVPNWorld(t)
		if _, err := NewServerUDP(w.serverIP, w.sudp, ServerConfig{PSK: []byte("secret")}); err != nil {
			t.Fatal(err)
		}
		cfg := keepaliveCfg()
		if _, err := ConnectUDP(w.clientIP, w.cudp, cfg); err != nil {
			t.Fatal(err)
		}
		w.k.At(5*sim.Second, func() { w.serverIP.SetPartitioned(true) })
		w.k.At(20*sim.Second, func() { w.serverIP.SetPartitioned(false) })
		w.k.RunUntil(60 * sim.Second)
		return w.k.Digest()
	}
	if d1, d2 := run(), run(); d1 != d2 {
		t.Errorf("keepalive recovery digests diverged: %016x != %016x", d1, d2)
	}
}
