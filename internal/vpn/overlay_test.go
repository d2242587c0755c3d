package vpn

import (
	"bytes"
	"testing"

	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/ipv4"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// meshWorld is a diamond overlay on one wire:
//
//	client ── relay1 ──┐
//	   └───── relay2 ──┴── exit (advertises its own /32)
//
// The client dials both relays (link0 = relay1, link1 = relay2), each relay
// dials the exit, and the exit terminates streams. Partitioning relay1
// forces the failover path through relay2.
type meshWorld struct {
	k          *sim.Kernel
	clientIP   *ipv4.Stack
	relay1IP   *ipv4.Stack
	relay2IP   *ipv4.Stack
	exitIP     *ipv4.Stack
	client     *Node
	relay1     *Node
	relay2     *Node
	exit       *Node
	exitTCP    *tcp.Stack
	clientTCP  *tcp.Stack
	exitPrefix inet.Prefix
}

var exitHP = inet.MustParseHostPort("10.0.1.1:4789")

// overlayCfg returns one test node's configuration.
func overlayCfg(name string, role Role) NodeConfig {
	return NodeConfig{Name: name, Role: role, PSK: []byte("mesh-psk")}
}

func newMeshWorld(t *testing.T, seed uint64) *meshWorld {
	t.Helper()
	k := sim.NewKernel(seed)
	var alloc ethernet.MACAllocator
	sw := ethernet.NewSwitch(k, &alloc)

	host := func(name, addr string) *ipv4.Stack {
		ip := ipv4.NewStack(k, name)
		ip.AddIface("eth0", sw.Attach(alloc.Next()), inet.MustParseAddr(addr), inet.MustParsePrefix("10.0.1.0/24"))
		return ip
	}
	w := &meshWorld{
		k:          k,
		exitIP:     host("exit", "10.0.1.1"),
		clientIP:   host("client", "10.0.1.10"),
		relay1IP:   host("relay1", "10.0.1.11"),
		relay2IP:   host("relay2", "10.0.1.12"),
		exitPrefix: inet.MustParsePrefix("10.0.1.1/32"),
	}
	w.exitTCP = tcp.NewStack(w.exitIP)
	w.clientTCP = tcp.NewStack(w.clientIP)
	r1TCP := tcp.NewStack(w.relay1IP)
	r2TCP := tcp.NewStack(w.relay2IP)

	exitCfg := overlayCfg("exit", RoleExit)
	exitCfg.Advertise = []inet.Prefix{w.exitPrefix}
	w.exit = NewNode(w.exitIP, w.exitTCP, exitCfg)
	w.relay1 = NewNode(w.relay1IP, r1TCP, overlayCfg("relay1", RoleRelay))
	w.relay2 = NewNode(w.relay2IP, r2TCP, overlayCfg("relay2", RoleRelay))
	w.client = NewNode(w.clientIP, w.clientTCP, overlayCfg("alice", RoleClient))

	if err := w.exit.Listen(); err != nil {
		t.Fatal(err)
	}
	if err := w.relay1.Listen(); err != nil {
		t.Fatal(err)
	}
	if err := w.relay2.Listen(); err != nil {
		t.Fatal(err)
	}
	w.relay1.AddPeer(inet.MustParseHostPort("10.0.1.1:4790"))
	w.relay2.AddPeer(inet.MustParseHostPort("10.0.1.1:4790"))
	w.client.AddPeer(inet.MustParseHostPort("10.0.1.11:4790")) // link0
	w.client.AddPeer(inet.MustParseHostPort("10.0.1.12:4790")) // link1
	return w
}

// TestOverlayRoutesConverge: the exit's prefix floods through both relays to
// the client, the best route prefers the lower link sequence (relay1), and
// poisoned reverse keeps the relays from offering the route back to the
// exit.
func TestOverlayRoutesConverge(t *testing.T) {
	w := newMeshWorld(t, 1)
	w.k.RunUntil(3 * sim.Second)
	if got := w.client.LinksUp(); got != 2 {
		t.Fatalf("client links up = %d, want 2", got)
	}
	reach := w.client.ReachablePrefixes()
	if len(reach) != 1 || reach[0] != w.exitPrefix {
		t.Fatalf("client routes = %v, want [%v]", reach, w.exitPrefix)
	}
	if b := w.client.rt.best[w.exitPrefix]; b.linkSeq != 0 || b.hops != 2 {
		t.Fatalf("best route = link%d hops=%d, want link0 hops=2 (relay1, deterministic tie-break)", b.linkSeq, b.hops)
	}
	// The exit must never learn a route to itself from the mesh.
	if got := w.exit.ReachablePrefixes(); len(got) != 0 {
		t.Fatalf("exit learned routes to itself: %v", got)
	}
}

// TestOverlayStreamEcho drives a stream through a relay to an exit handler
// and back, then half-closes both directions for a clean shutdown.
func TestOverlayStreamEcho(t *testing.T) {
	w := newMeshWorld(t, 1)
	var gotOrigin string
	w.exit.Handle(9000, func(st *Stream) {
		gotOrigin = st.Origin
		st.OnData = func(b []byte) { st.Write(append([]byte("echo:"), b...)) }
		st.OnCloseRead = func() { st.CloseWrite() }
	})
	w.k.RunUntil(2 * sim.Second)

	st, err := w.client.OpenStream(inet.MustParseHostPort("10.0.1.1:9000"))
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	closedErr := error(ErrStreamReset)
	done := false
	st.OnData = func(b []byte) { got = append(got, b...) }
	st.OnClose = func(err error) { closedErr, done = err, true }
	st.Write([]byte("hello mesh"))
	w.k.RunUntil(3 * sim.Second)
	st.CloseWrite()
	w.k.RunUntil(4 * sim.Second)

	if !bytes.Equal(got, []byte("echo:hello mesh")) {
		t.Fatalf("echo = %q", got)
	}
	if gotOrigin != "alice" {
		t.Fatalf("origin = %q, want the pseudonym, never an address", gotOrigin)
	}
	if !done || closedErr != nil {
		t.Fatalf("clean close: done=%v err=%v", done, closedErr)
	}
	if w.relay1.StreamsForwarded != 1 || w.relay1.FramesForwarded < 2 {
		t.Fatalf("relay1 forwarded streams=%d frames=%d", w.relay1.StreamsForwarded, w.relay1.FramesForwarded)
	}
	// Teardown must not leak stream state anywhere along the chain.
	for _, n := range []*Node{w.client, w.relay1, w.relay2, w.exit} {
		for _, l := range n.links {
			if len(l.streams) != 0 {
				t.Fatalf("%s link%d leaked %d streams", n.cfg.Name, l.seq, len(l.streams))
			}
		}
	}
}

// TestOverlayTunnelFailover is the headline: the end-to-end tunnel rides the
// mesh, relay1 dies mid-session, the client's DPD notices, and the redial
// rebuilds the chain through relay2 — rekeyed, same tunnel address, and the
// inner traffic decrypts end to end afterwards.
func TestOverlayTunnelFailover(t *testing.T) {
	w := newMeshWorld(t, 7)
	srv, err := NewServerStream(w.exit, ServerConfig{PSK: []byte("secret")})
	if err != nil {
		t.Fatal(err)
	}
	var cli *Client
	w.k.At(sim.Second, func() {
		cfg := ClientConfig{
			PSK: []byte("secret"), Server: exitHP,
			Keepalive: 500 * sim.Millisecond,
		}
		cli, err = ConnectOverlay(w.clientIP, w.client, cfg)
		if err != nil {
			t.Errorf("ConnectOverlay: %v", err)
		}
	})
	w.k.RunUntil(4 * sim.Second)
	if cli == nil || !cli.Up() {
		t.Fatal("tunnel not up over the mesh")
	}
	firstIP := cli.TunnelIP()
	terminal := false
	cli.OnDown = func(error) { terminal = true }

	// relay1 — the active first hop — dies.
	w.relay1IP.SetPartitioned(true)
	w.k.RunUntil(20 * sim.Second)

	if !cli.Up() {
		t.Fatalf("tunnel did not fail over: PeerTimeouts=%d Reconnects=%d", cli.PeerTimeouts, cli.Reconnects)
	}
	if terminal {
		t.Fatal("failover fired OnDown")
	}
	if cli.TunnelIP() != firstIP {
		t.Fatalf("tunnel address changed across failover: %v -> %v", firstIP, cli.TunnelIP())
	}
	if cli.Rekeys == 0 || srv.Rekeys == 0 {
		t.Fatalf("rebuilt chain did not rekey (client %d, server %d)", cli.Rekeys, srv.Rekeys)
	}
	if b := w.client.rt.best[w.exitPrefix]; b.linkSeq != 1 {
		t.Fatalf("best route still via link%d, want link1 (relay2)", b.linkSeq)
	}
	// Only one live server session: the origin key reused it.
	if got := len(srv.sessions); got != 1 {
		t.Fatalf("server sessions = %d, want 1 (keyed by origin)", got)
	}
	if srv.Handshakes < 2 {
		t.Fatalf("Handshakes = %d, want the rebuild to re-handshake", srv.Handshakes)
	}
}

// TestOverlayHostileRelayDetected is E13's core mechanism: a hostile first
// hop selectively mangles forwarded tunnel records (letting the handshake
// through so the session establishes), the overlay keeps forwarding — it
// cannot tell — and the end-to-end record MACs detect every mangled record.
func TestOverlayHostileRelayDetected(t *testing.T) {
	w := newMeshWorld(t, 1)
	srv, err := NewServerStream(w.exit, ServerConfig{PSK: []byte("secret")})
	if err != nil {
		t.Fatal(err)
	}
	mangled := 0
	w.relay1.MangleForward = func(b []byte) []byte {
		// The relay sees the carrier framing (len||type||body) in the
		// clear; a selective attacker passes the handshake untouched and
		// flips bits only inside sealed records.
		if len(b) > 3 && (b[2] == msgData || b[2] == msgKeepalive) {
			b = append([]byte(nil), b...)
			b[len(b)/2] ^= 0x40
			mangled++
		}
		return b
	}
	var cli *Client
	w.k.At(sim.Second, func() {
		cli, err = ConnectOverlay(w.clientIP, w.client, ClientConfig{
			PSK: []byte("secret"), Server: exitHP,
			Keepalive: 500 * sim.Millisecond,
		})
		if err != nil {
			t.Errorf("ConnectOverlay: %v", err)
		}
	})
	w.k.RunUntil(15 * sim.Second)
	if cli == nil || srv.Handshakes == 0 {
		t.Fatal("handshake (untouched by the selective mangler) never completed")
	}
	if mangled == 0 {
		t.Fatal("hostile relay never saw a sealed record")
	}
	detected := srv.TamperDetected() + cli.TamperDetected()
	if detected == 0 {
		t.Fatalf("%d mangled records, none detected end to end", mangled)
	}
	// The per-hop links themselves stay clean: tampering happened inside
	// the relay, past its own link MACs.
	if w.client.TamperDetected() != 0 {
		t.Fatal("per-hop MACs flagged the mangling — it must be invisible to the overlay")
	}
}

// TestStaleCarrierCannotDeliver pins the generation guard: after a rebuilt
// chain attaches a replacement carrier for the same origin, frames arriving
// on the pre-failover stream must be dropped, not fed into the session.
func TestStaleCarrierCannotDeliver(t *testing.T) {
	w := newMeshWorld(t, 1)
	srv, err := NewServerStream(w.exit, ServerConfig{PSK: []byte("secret")})
	if err != nil {
		t.Fatal(err)
	}
	w.k.RunUntil(2 * sim.Second)

	// Two carriers from the same origin, attached in order: stale then live.
	stale, err := w.client.OpenStream(exitHP)
	if err != nil {
		t.Fatal(err)
	}
	w.k.RunUntil(3 * sim.Second)
	live, err := w.client.OpenStream(exitHP)
	if err != nil {
		t.Fatal(err)
	}
	w.k.RunUntil(4 * sim.Second)

	// A hello on the live carrier is answered; the same hello on the stale
	// carrier must be ignored entirely.
	nonce := bytes.Repeat([]byte{0xaa}, nonceLen)
	liveReplies, staleReplies := 0, 0
	live.OnData = func([]byte) { liveReplies++ }
	stale.OnData = func([]byte) { staleReplies++ }
	live.Write(frame(msgClientHello, nonce))
	w.k.RunUntil(5 * sim.Second)
	stale.Write(frame(msgClientHello, nonce))
	w.k.RunUntil(6 * sim.Second)

	if liveReplies == 0 {
		t.Fatal("live carrier got no server hello")
	}
	if staleReplies != 0 {
		t.Fatalf("stale carrier delivered: got %d replies through a replaced generation", staleReplies)
	}
	_ = srv
}

// TestRelayChainReconnectStormConverges mirrors the dot11 STA rescan
// livelock test at the overlay layer: a 3-hop chain whose middle hop flaps
// repeatedly must converge back to fully-up links once the flapping stops —
// seeded backoff must spread the redials instead of synchronising them into
// a storm that never settles.
func TestRelayChainReconnectStormConverges(t *testing.T) {
	k := sim.NewKernel(42)
	var alloc ethernet.MACAllocator
	sw := ethernet.NewSwitch(k, &alloc)
	host := func(name, addr string) *ipv4.Stack {
		ip := ipv4.NewStack(k, name)
		ip.AddIface("eth0", sw.Attach(alloc.Next()), inet.MustParseAddr(addr), inet.MustParsePrefix("10.0.1.0/24"))
		return ip
	}
	exitIP := host("exit", "10.0.1.1")
	r1IP := host("relay1", "10.0.1.11")
	r2IP := host("relay2", "10.0.1.12")
	cliIP := host("client", "10.0.1.10")

	exitCfg := overlayCfg("exit", RoleExit)
	exitCfg.Advertise = []inet.Prefix{inet.MustParsePrefix("10.0.1.1/32")}
	exit := NewNode(exitIP, tcp.NewStack(exitIP), exitCfg)
	r1 := NewNode(r1IP, tcp.NewStack(r1IP), overlayCfg("relay1", RoleRelay))
	r2 := NewNode(r2IP, tcp.NewStack(r2IP), overlayCfg("relay2", RoleRelay))
	cli := NewNode(cliIP, tcp.NewStack(cliIP), overlayCfg("alice", RoleClient))

	// Linear 3-hop chain: client -> r1 -> r2 -> exit.
	if err := exit.Listen(); err != nil {
		t.Fatal(err)
	}
	if err := r1.Listen(); err != nil {
		t.Fatal(err)
	}
	if err := r2.Listen(); err != nil {
		t.Fatal(err)
	}
	r2.AddPeer(inet.MustParseHostPort("10.0.1.1:4790"))
	r1.AddPeer(inet.MustParseHostPort("10.0.1.12:4790"))
	cli.AddPeer(inet.MustParseHostPort("10.0.1.11:4790"))
	k.RunUntil(3 * sim.Second)
	if cli.LinksUp() != 1 || len(cli.ReachablePrefixes()) != 1 {
		t.Fatal("chain never converged before the storm")
	}

	// Storm: the middle relay flaps 10 times at 900 ms period — shorter
	// than the backoff max, so ladders keep resetting and climbing.
	for i := 0; i < 10; i++ {
		at := 3*sim.Second + sim.Time(i)*900*sim.Millisecond
		k.At(at, func() { r2IP.SetPartitioned(true) })
		k.At(at+450*sim.Millisecond, func() { r2IP.SetPartitioned(false) })
	}
	k.RunUntil(60 * sim.Second)

	if cli.LinksUp() != 1 || r1.LinksUp() < 2 || r2.LinksUp() < 2 {
		t.Fatalf("chain livelocked: cli=%d r1=%d r2=%d links up",
			cli.LinksUp(), r1.LinksUp(), r2.LinksUp())
	}
	if got := cli.ReachablePrefixes(); len(got) != 1 {
		t.Fatalf("routes did not re-converge: %v", got)
	}
	if r1.LinkReconnects() == 0 {
		t.Fatal("storm produced no reconnect attempts — test exercised nothing")
	}
	// Post-storm the chain must carry traffic again.
	var echoed []byte
	exit.Handle(9000, func(st *Stream) {
		st.OnData = func(b []byte) { st.Write(b) }
	})
	st, err := cli.OpenStream(inet.MustParseHostPort("10.0.1.1:9000"))
	if err != nil {
		t.Fatalf("post-storm open: %v", err)
	}
	st.OnData = func(b []byte) { echoed = append(echoed, b...) }
	st.Write([]byte("after the storm"))
	k.RunUntil(62 * sim.Second)
	if !bytes.Equal(echoed, []byte("after the storm")) {
		t.Fatalf("post-storm echo = %q", echoed)
	}
}

// TestOverlayDeterministic: the same seed and schedule must produce an
// identical failover trace — byte-identical digests across replays.
func TestOverlayDeterministic(t *testing.T) {
	run := func() (uint64, uint64) {
		w := newMeshWorld(t, 7)
		srv, err := NewServerStream(w.exit, ServerConfig{PSK: []byte("secret")})
		if err != nil {
			t.Fatal(err)
		}
		w.k.At(sim.Second, func() {
			_, err := ConnectOverlay(w.clientIP, w.client, ClientConfig{
				PSK: []byte("secret"), Server: exitHP,
				Keepalive: 500 * sim.Millisecond,
			})
			if err != nil {
				t.Errorf("ConnectOverlay: %v", err)
			}
		})
		w.k.At(5*sim.Second, func() { w.relay1IP.SetPartitioned(true) })
		w.k.At(12*sim.Second, func() { w.relay1IP.SetPartitioned(false) })
		w.k.RunUntil(25 * sim.Second)
		return w.k.Digest(), srv.Handshakes
	}
	d1, h1 := run()
	d2, h2 := run()
	if d1 != d2 || h1 != h2 {
		t.Fatalf("replay diverged: digest %x vs %x, handshakes %d vs %d", d1, d2, h1, h2)
	}
}
