package vpn

import (
	"fmt"
	"sort"

	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/ipv4"
	"repro/internal/tcp"
	"repro/internal/udp"
)

// Carrier selects the tunnel transport.
type Carrier int

// Carriers. The paper's PPP-over-SSH is a TCP carrier; CarrierUDP is the
// E6 ablation that avoids TCP-over-TCP.
const (
	CarrierTCP Carrier = iota
	CarrierUDP
)

// String names the carrier.
func (c Carrier) String() string {
	if c == CarrierUDP {
		return "udp"
	}
	return "tcp"
}

// DefaultPort is the tunnel service port.
const DefaultPort inet.Port = 4789

// TunnelPrefix is the tunnel's virtual subnet: the server takes its first
// host address and assigns the rest to clients.
var TunnelPrefix = inet.Prefix{Addr: inet.Addr{10, 99, 0, 0}, Bits: 24}

// tunName is the tun device's interface name on the client and the server.
const tunName = "tun0"

// ServerConfig configures a VPN endpoint.
type ServerConfig struct {
	// PSK is the preestablished shared secret (paper requirement 2).
	PSK []byte
}

// session is one authenticated client on the server.
type session struct {
	tunnelIP inet.Addr
	seal     *sealer
	open     *opener
	stream   frameStream
	hs       handshakeState
	// gen is the carrier generation (stream carrier): bumped when a rebuilt
	// chain attaches, so a stale pre-failover carrier cannot deliver.
	gen int
	// send transmits a framed message to this client over its carrier.
	send func(msg []byte)
}

// Server is the trusted VPN endpoint on the wired network.
type Server struct {
	cfg ServerConfig
	ip  *ipv4.Stack
	tun *tunNIC
	// sessions by tunnel IP (for routing return traffic).
	sessions map[inet.Addr]*session
	nextHost uint32

	// Counters.
	Handshakes     uint64
	AuthFailures   uint64
	PacketsIn      uint64
	PacketsOut     uint64
	NoSessionDrops uint64
	// Keepalives counts authenticated liveness probes answered; Rekeys counts
	// handshakes that replaced the keys of an already-authenticated session.
	Keepalives uint64
	Rekeys     uint64
}

// serverTunIP is the server's own address inside the tunnel subnet.
func (s *Server) serverTunIP() inet.Addr {
	return inet.AddrFromUint32(TunnelPrefix.Addr.Uint32() + 1)
}

// SessionIPs lists the assigned tunnel addresses of the authenticated
// sessions in address order — a deterministic view of who holds a lease.
func (s *Server) SessionIPs() []inet.Addr {
	out := make([]inet.Addr, 0, len(s.sessions))
	for ip := range s.sessions {
		out = append(out, ip)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Uint32() < out[j].Uint32() })
	return out
}

// TamperDetected sums MAC failures across sessions — evidence of on-path
// modification attempts.
func (s *Server) TamperDetected() uint64 {
	var n uint64
	for _, sess := range s.sessions {
		n += sess.open.MACFailures
	}
	return n
}

// newServer builds the shared parts.
func newServer(ip *ipv4.Stack, cfg ServerConfig) *Server {
	s := &Server{cfg: cfg, ip: ip, sessions: make(map[inet.Addr]*session), nextHost: 1}
	s.tun = newTunNIC(ethernet.MAC{0x02, 0xf0, 0x0d, 0x00, 0x01, 0x00}, s.tunOutbound)
	ip.AddIface(tunName, s.tun, s.serverTunIP(), TunnelPrefix)
	return s
}

// tunOutbound routes return traffic to the owning client session.
func (s *Server) tunOutbound(ipPacket []byte) {
	pkt, err := ipv4.Unmarshal(ipPacket)
	if err != nil {
		return
	}
	sess, ok := s.sessions[pkt.Dst]
	if !ok || !sess.hs.authed {
		s.NoSessionDrops++
		return
	}
	s.PacketsOut++
	sess.send(frame(msgData, sess.seal.seal(ipPacket)))
}

// allocIP hands out the next tunnel address.
func (s *Server) allocIP() (inet.Addr, error) {
	for i := 0; i < 1<<(32-TunnelPrefix.Bits); i++ {
		s.nextHost++
		ip := inet.AddrFromUint32(TunnelPrefix.Addr.Uint32() + s.nextHost)
		if !TunnelPrefix.Contains(ip) {
			return inet.Addr{}, fmt.Errorf("vpn: tunnel subnet exhausted")
		}
		if _, taken := s.sessions[ip]; !taken && ip != s.serverTunIP() {
			return ip, nil
		}
	}
	return inet.Addr{}, fmt.Errorf("vpn: tunnel subnet exhausted")
}

// handleMsg advances one session's handshake / data state machine.
func (s *Server) handleMsg(sess *session, msg []byte) {
	if len(msg) == 0 {
		return
	}
	typ, body := msg[0], msg[1:]
	switch typ {
	case msgClientHello:
		// The shared handshakeState keeps hellos idempotent per client nonce
		// (a UDP retransmit gets the SAME server nonce) and detects rekeys (a
		// fresh nonce kills the old transcript; the full auth runs again).
		resp, rekeyed, ok := sess.hs.onHello(s.ip.Kernel(), s.cfg.PSK, body)
		if !ok {
			return
		}
		if rekeyed {
			s.Rekeys++
		}
		sess.send(frame(msgServerHello, resp))
	case msgClientAuth:
		switch sess.hs.onAuth(s.cfg.PSK, body) {
		case authIgnore:
			return
		case authBad:
			s.AuthFailures++
			return
		case authDup:
			// Duplicate (UDP retry): the client may have missed the IP
			// assignment; resend it under a fresh record sequence.
			assign := make([]byte, 5)
			copy(assign[:4], sess.tunnelIP[:])
			assign[4] = byte(TunnelPrefix.Bits)
			sess.send(frame(msgAssignIP, sess.seal.seal(assign)))
			return
		}
		sess.seal, sess.open = responderKeys(s.cfg.PSK, sess.hs.nonceC, sess.hs.nonceS)
		// A rekeying session keeps its reserved tunnel address so the
		// client's routes and inner connections survive the key change.
		ip := sess.tunnelIP
		if ip == (inet.Addr{}) {
			var err error
			ip, err = s.allocIP()
			if err != nil {
				return
			}
			sess.tunnelIP = ip
			s.sessions[ip] = sess
		}
		s.Handshakes++
		assign := make([]byte, 5)
		copy(assign[:4], ip[:])
		assign[4] = byte(TunnelPrefix.Bits)
		sess.send(frame(msgAssignIP, sess.seal.seal(assign)))
	case msgData:
		if !sess.hs.authed {
			return
		}
		inner, err := sess.open.open(body)
		if err != nil {
			return // counted in opener
		}
		s.PacketsIn++
		s.tun.deliver(inner)
	case msgKeepalive:
		if !sess.hs.authed {
			return
		}
		if _, err := sess.open.open(body); err != nil {
			return // forged or stale probe; counted in opener
		}
		s.Keepalives++
		sess.send(frame(msgKeepalive, sess.seal.seal(nil)))
	}
}

// NewServerTCP starts a TCP-carrier endpoint on the host's stacks.
func NewServerTCP(ip *ipv4.Stack, t *tcp.Stack, cfg ServerConfig) (*Server, error) {
	s := newServer(ip, cfg)
	l, err := t.Listen(DefaultPort)
	if err != nil {
		return nil, err
	}
	l.OnAccept = func(c *tcp.Conn) {
		sess := &session{}
		sess.send = func(msg []byte) { _ = c.Write(msg) }
		c.OnData = func(b []byte) {
			for _, m := range sess.stream.push(b) {
				s.handleMsg(sess, m)
			}
		}
		c.OnClose = func(err error) {
			if sess.hs.authed {
				delete(s.sessions, sess.tunnelIP)
			}
		}
	}
	return s, nil
}

// NewServerUDP starts a UDP-carrier endpoint.
func NewServerUDP(ip *ipv4.Stack, u *udp.Stack, cfg ServerConfig) (*Server, error) {
	s := newServer(ip, cfg)
	sock, err := u.Bind(DefaultPort)
	if err != nil {
		return nil, err
	}
	byPeer := make(map[inet.HostPort]*session)
	sock.SetReceiver(func(src inet.HostPort, payload []byte) {
		sess, ok := byPeer[src]
		if !ok {
			sess = &session{}
			peer := src
			sess.send = func(msg []byte) {
				// UDP carrier: strip stream framing, one message per
				// datagram (keep the type byte).
				_ = sock.SendTo(peer, msg[2:])
			}
			byPeer[src] = sess
		}
		s.handleMsg(sess, payload)
	})
	return s, nil
}
