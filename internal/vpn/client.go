package vpn

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/ipv4"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/udp"
)

// ClientConfig configures a VPN client.
type ClientConfig struct {
	// PSK is the preestablished shared secret.
	PSK []byte
	// Server is the trusted endpoint, selected out of band — never
	// discovered from the (possibly hostile) local network.
	Server  inet.HostPort
	Carrier Carrier
	// SplitTunnelPrefixes, when non-empty, routes only these prefixes
	// through the tunnel instead of all traffic. This violates the
	// paper's requirement 4 and exists as the E3 ablation demonstrating
	// why ("A solution that is local to one network will not protect the
	// client reliably").
	SplitTunnelPrefixes []inet.Prefix
	// HandshakeTimeout defaults to 10 s.
	HandshakeTimeout sim.Time

	// Keepalive enables dead-peer detection: every Keepalive the client
	// sends a sealed liveness probe, and if nothing authenticated arrives
	// for PeerTimeout it declares the peer dead and re-handshakes with
	// exponential backoff (fresh nonces, fresh keys). Zero disables the
	// whole mechanism, which is the default — a client without keepalives
	// behaves exactly as before.
	Keepalive sim.Time
	// PeerTimeout is the silence threshold (default 3×Keepalive).
	PeerTimeout sim.Time
	// ReconnectBackoffBase/Max bound the redial ladder (defaults 1 s / 30 s).
	ReconnectBackoffBase sim.Time
	ReconnectBackoffMax  sim.Time
}

func (c *ClientConfig) fill() {
	if c.HandshakeTimeout == 0 {
		c.HandshakeTimeout = 10 * sim.Second
	}
	if c.Keepalive > 0 {
		if c.PeerTimeout == 0 {
			c.PeerTimeout = 3 * c.Keepalive
		}
		if c.ReconnectBackoffBase == 0 {
			c.ReconnectBackoffBase = sim.Second
		}
		if c.ReconnectBackoffMax == 0 {
			c.ReconnectBackoffMax = 30 * sim.Second
		}
	}
}

// Client state.
type clientState int

const (
	stateIdle clientState = iota
	stateHello
	stateAuth
	stateUp
	stateDown
)

// Client is the paper's defended wireless client: once Up, every IP packet
// it originates (beyond the carrier itself) crosses the wireless segment
// only inside the authenticated tunnel.
type Client struct {
	cfg ClientConfig
	ip  *ipv4.Stack

	state    clientState
	nonceC   []byte
	seal     *sealer
	open     *opener
	stream   frameStream
	tun      *tunNIC
	tunnelIP inet.Addr
	sendMsg  func(msg []byte)
	abort    func()
	timeout  sim.Timer

	// Self-healing state (only active when cfg.Keepalive > 0). The DPD loop
	// and the reconnect ladder are the shared peer machinery (peer.go), so
	// the end-to-end tunnel and every overlay hop heal identically.
	ka         dpd
	bo         backoff
	rng        *sim.RNG
	healing    bool
	hsGen      int
	carrierGen int
	redial     func()

	// OnUp fires when the tunnel is established (with the assigned IP),
	// including again after every successful rekey.
	OnUp func(ip inet.Addr)
	// OnDown fires when the tunnel fails terminally. Self-healing
	// reconnects do not fire it — the client is still trying.
	OnDown func(err error)

	// Counters.
	PacketsIn, PacketsOut uint64
	// KeepalivesSent counts probes; PeerTimeouts counts dead-peer
	// declarations; Reconnects counts redial attempts; Rekeys counts
	// handshakes completed after the first.
	KeepalivesSent uint64
	PeerTimeouts   uint64
	Reconnects     uint64
	Rekeys         uint64
}

// ErrServerAuth means the endpoint failed mutual authentication — exactly
// the case 802.11b cannot detect and the VPN can: something on the path is
// not the trusted endpoint.
var ErrServerAuth = errors.New("vpn: server failed authentication")

// ErrHandshakeTimeout means the tunnel never came up.
var ErrHandshakeTimeout = errors.New("vpn: handshake timed out")

// TamperDetected reports record MAC failures observed by this client.
func (c *Client) TamperDetected() uint64 {
	if c.open == nil {
		return 0
	}
	return c.open.MACFailures
}

// TunnelIP reports the assigned tunnel address (zero until Up).
func (c *Client) TunnelIP() inet.Addr { return c.tunnelIP }

// Up reports whether the tunnel is established.
func (c *Client) Up() bool { return c.state == stateUp }

// Healing reports whether the client has declared its peer dead and is
// between reconnect attempts.
func (c *Client) Healing() bool { return c.healing }

// newClient builds the carrier-independent parts: state, the reconnect
// ladder, and the DPD loop (armed only once the tunnel is up).
func newClient(ip *ipv4.Stack, cfg ClientConfig) *Client {
	c := &Client{cfg: cfg, ip: ip, state: stateIdle}
	c.bo = backoff{base: cfg.ReconnectBackoffBase, max: cfg.ReconnectBackoffMax}
	c.ka = dpd{
		k: ip.Kernel(), interval: cfg.Keepalive, timeout: cfg.PeerTimeout,
		live: func() bool { return c.state == stateUp },
		probe: func() {
			c.KeepalivesSent++
			c.sendMsg(frame(msgKeepalive, c.seal.seal(nil)))
		},
		expired: func() { c.peerDead() },
	}
	return c
}

// ConnectTCP brings the tunnel up over a TCP carrier (the paper's
// PPP-over-SSH arrangement).
func ConnectTCP(ip *ipv4.Stack, t *tcp.Stack, cfg ClientConfig) (*Client, error) {
	cfg.fill()
	c := newClient(ip, cfg)
	var cur *tcp.Conn
	attach := func(conn *tcp.Conn) {
		cur = conn
		c.carrierGen++
		gen := c.carrierGen
		c.sendMsg = func(msg []byte) { _ = conn.Write(msg) }
		c.abort = conn.Abort
		conn.OnConnect = func() { c.begin() }
		conn.OnData = func(b []byte) {
			if gen != c.carrierGen {
				return // late bytes from a replaced carrier
			}
			for _, m := range c.stream.push(b) {
				c.handleMsg(m)
			}
		}
		conn.OnClose = func(err error) {
			if gen != c.carrierGen {
				return
			}
			switch {
			case c.state == stateUp && c.cfg.Keepalive > 0:
				// The carrier died under an established tunnel: no need to
				// wait out PeerTimeout, the peer is already known dead.
				c.peerDead()
			case c.state != stateUp && c.state != stateDown:
				if c.healing {
					c.state = stateIdle
					c.scheduleReconnect()
				} else {
					c.fail(fmt.Errorf("vpn: carrier closed during handshake: %w", errOr(err)))
				}
			}
		}
	}
	c.redial = func() {
		// Orphan the dead carrier before killing it so its OnClose (stale
		// generation) cannot re-enter the reconnect machinery.
		c.carrierGen++
		if cur != nil {
			cur.Abort()
			cur = nil
		}
		c.stream = frameStream{} // drop half-parsed bytes from the dead carrier
		conn, err := t.Dial(cfg.Server)
		if err != nil {
			c.scheduleReconnect()
			return
		}
		attach(conn)
		c.armTimeout()
	}
	conn, err := t.Dial(cfg.Server)
	if err != nil {
		return nil, err
	}
	attach(conn)
	c.armTimeout()
	return c, nil
}

// ConnectUDP brings the tunnel up over a UDP carrier.
func ConnectUDP(ip *ipv4.Stack, u *udp.Stack, cfg ClientConfig) (*Client, error) {
	cfg.fill()
	c := newClient(ip, cfg)
	sock, err := u.Bind(0)
	if err != nil {
		return nil, err
	}
	var lastMsg []byte
	c.sendMsg = func(msg []byte) {
		lastMsg = msg
		_ = sock.SendTo(cfg.Server, msg[2:]) // datagrams skip stream framing
	}
	c.abort = sock.Close
	sock.SetReceiver(func(src inet.HostPort, payload []byte) {
		if src != cfg.Server {
			return
		}
		c.handleMsg(payload)
	})
	// UDP handshake retries: resend the last handshake message each second
	// until the tunnel is up. Each redial starts a fresh generation of the
	// loop; the old one sees the bumped hsGen and dies.
	start := func() {
		gen := c.hsGen
		var retry func(n int)
		retry = func(n int) {
			if gen != c.hsGen || c.state == stateUp || c.state == stateDown || n > 8 {
				return
			}
			if lastMsg != nil {
				_ = sock.SendTo(cfg.Server, lastMsg[2:])
			}
			ip.Kernel().After(sim.Second, func() { retry(n + 1) })
		}
		ip.Kernel().After(sim.Second, func() { retry(0) })
	}
	c.redial = func() {
		c.hsGen++
		c.begin()
		c.armTimeout()
		start()
	}
	// Initial connect. The ordering (retry armed, then hello, then timeout)
	// is load-bearing: it fixes event sequence numbers, so rearranging it
	// would shift every UDP-carrier scenario digest.
	start()
	c.begin()
	c.armTimeout()
	return c, nil
}

func errOr(err error) error {
	if err == nil {
		return errors.New("closed")
	}
	return err
}

func (c *Client) armTimeout() {
	c.timeout = c.ip.Kernel().After(c.cfg.HandshakeTimeout, func() {
		if c.state == stateUp {
			return
		}
		if c.healing {
			// A failed re-handshake is not terminal — back off and retry.
			c.state = stateIdle
			c.scheduleReconnect()
			return
		}
		c.fail(ErrHandshakeTimeout)
	})
}

func (c *Client) begin() {
	c.state = stateHello
	c.nonceC = make([]byte, nonceLen)
	c.ip.Kernel().RNG().Bytes(c.nonceC)
	c.sendMsg(frame(msgClientHello, c.nonceC))
}

func (c *Client) fail(err error) {
	if c.state == stateDown {
		return
	}
	c.state = stateDown
	c.timeout.Cancel()
	c.ka.stop()
	if c.abort != nil {
		c.abort()
	}
	if c.OnDown != nil {
		c.OnDown(err)
	}
}

func (c *Client) handleMsg(msg []byte) {
	if len(msg) == 0 {
		return
	}
	typ, body := msg[0], msg[1:]
	switch typ {
	case msgServerHello:
		if c.state != stateHello {
			return
		}
		nonceS, proof, ok := splitServerHello(body)
		if !ok {
			return
		}
		// Authenticate the SERVER before anything else: paper §5.2 — a
		// hotspot-provided endpoint proves nothing; ours must know the PSK.
		if !bytes.Equal(proof, authTag(c.cfg.PSK, "server", c.nonceC, nonceS)) {
			c.fail(ErrServerAuth)
			return
		}
		c.seal, c.open = initiatorKeys(c.cfg.PSK, c.nonceC, nonceS)
		c.state = stateAuth
		c.ka.bump()
		c.sendMsg(frame(msgClientAuth, authTag(c.cfg.PSK, "client", c.nonceC, nonceS)))
	case msgAssignIP:
		if c.state != stateAuth {
			return
		}
		plain, err := c.open.open(body)
		if err != nil || len(plain) != 5 {
			return
		}
		var ip inet.Addr
		copy(ip[:], plain[:4])
		c.tunnelIP = ip
		c.ka.bump()
		bits := int(plain[4])
		mask := inet.Prefix{Bits: bits}.Mask().Uint32()
		c.bringUp(inet.Prefix{Addr: inet.AddrFromUint32(ip.Uint32() & mask), Bits: bits})
	case msgData:
		if c.state != stateUp {
			return
		}
		inner, err := c.open.open(body)
		if err != nil {
			return
		}
		c.PacketsIn++
		c.ka.bump()
		c.tun.deliver(inner)
	case msgKeepalive:
		if c.state != stateUp || c.open == nil {
			return
		}
		if _, err := c.open.open(body); err != nil {
			return
		}
		c.ka.bump()
	}
}

// bringUp creates the tun device and installs the all-traffic routes. On a
// rekey the device, routes and (normally) the address already exist, so it
// only flips the state back to up.
func (c *Client) bringUp(prefix inet.Prefix) {
	c.timeout.Cancel()
	if c.tun == nil {
		c.tun = newTunNIC(ethernet.MAC{0x02, 0xf0, 0x0d, 0x00, 0x02, 0x00}, func(ipPacket []byte) {
			c.PacketsOut++
			c.sendMsg(frame(msgData, c.seal.seal(ipPacket)))
		})
		c.ip.AddIface(tunName, c.tun, c.tunnelIP, prefix)

		// Pin the carrier's path to the physical network first, then steer
		// everything else into the tunnel.
		if r, ok := c.ip.LookupRoute(c.cfg.Server.Addr); ok && r.Iface != tunName {
			c.ip.AddRoute(ipv4.Route{
				Prefix:  inet.Prefix{Addr: c.cfg.Server.Addr, Bits: 32},
				Gateway: r.Gateway, Iface: r.Iface,
			})
		}
		if len(c.cfg.SplitTunnelPrefixes) == 0 {
			// Full tunnel, OpenVPN redirect-gateway style: two /1 routes beat
			// any default route without touching it.
			c.ip.AddRoute(ipv4.Route{Prefix: inet.MustParsePrefix("0.0.0.0/1"), Iface: tunName})
			c.ip.AddRoute(ipv4.Route{Prefix: inet.MustParsePrefix("128.0.0.0/1"), Iface: tunName})
		} else {
			for _, p := range c.cfg.SplitTunnelPrefixes {
				c.ip.AddRoute(ipv4.Route{Prefix: p, Iface: tunName})
			}
		}
	} else if ifc := c.ip.Iface(tunName); ifc != nil && ifc.Addr != c.tunnelIP {
		// The server handed out a different address (a carrier reconnect
		// built a fresh server-side session): move the interface.
		ifc.Addr = c.tunnelIP
	}
	c.state = stateUp
	if c.healing {
		c.healing = false
		c.Rekeys++
	}
	c.bo.reset()
	c.startKeepalive()
	if c.OnUp != nil {
		c.OnUp(c.tunnelIP)
	}
}

// startKeepalive arms the shared dead-peer-detection loop. The RNG fork is
// lazy so clients without keepalives never draw from the kernel RNG and
// existing scenario digests are untouched.
func (c *Client) startKeepalive() {
	if c.cfg.Keepalive <= 0 {
		return
	}
	if c.rng == nil {
		c.rng = c.ip.Kernel().RNG().Fork()
	}
	c.ka.start()
}

// peerDead transitions an up tunnel into the self-healing loop.
func (c *Client) peerDead() {
	c.PeerTimeouts++
	c.healing = true
	c.state = stateIdle
	c.ka.stop()
	c.scheduleReconnect()
}

// scheduleReconnect arms the next redial on the shared exponential ladder.
func (c *Client) scheduleReconnect() {
	if c.state == stateDown {
		return
	}
	if c.rng == nil {
		c.rng = c.ip.Kernel().RNG().Fork()
	}
	d := c.bo.next(c.rng)
	c.ip.Kernel().After(d, func() {
		if c.state != stateIdle {
			return
		}
		c.Reconnects++
		c.redial()
	})
}
