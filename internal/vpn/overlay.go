package vpn

import (
	"errors"

	"repro/internal/inet"
	"repro/internal/ipv4"
	"repro/internal/tcp"
)

// The multi-hop mesh overlay (§5's defense generalised): instead of one
// point-to-point tunnel, a client reaches the trusted endpoint through a
// mesh of relay and exit nodes. Every adjacent pair of nodes runs the SAME
// PSK handshake, sealed records, keepalive/DPD, and seeded-backoff redial
// machinery as the end-to-end tunnel (peer.go), so each hop individually
// detects tampering and heals. On top of the per-hop links sit:
//
//   - flood-based route advertisement (route.go) with longest-prefix-match
//     forwarding and hop-count metrics, so a dead relay withdraws its routes
//     and traffic fails over to an alternate chain;
//   - virtual streams (stream.go) multiplexed over the links, so the
//     end-to-end tunnel carrier rides the overlay and survives re-routing.
//
// Trust model: relays are NOT trusted. A stream's payload crosses them as
// sealed end-to-end tunnel records, so a hostile first hop (the rogue-AP
// scenario of the paper, E13) sees only opaque bytes and the exit sees only
// the previous hop plus an origin pseudonym — never the client's address.

// OverlayPort is the overlay link service port (the end-to-end tunnel keeps
// DefaultPort; relays carry it inside streams).
const OverlayPort inet.Port = 4790

// Role determines what a node will do for others.
type Role int

// Roles. Clients originate streams but never provide transit; relays
// forward streams and flood routes; exits additionally terminate streams
// for their advertised prefixes (hosting services or dialling out).
const (
	RoleClient Role = iota
	RoleRelay
	RoleExit
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleRelay:
		return "relay"
	case RoleExit:
		return "exit"
	default:
		return "client"
	}
}

// NodeConfig configures one overlay node.
type NodeConfig struct {
	// Name is the node's origin pseudonym: the only identity a stream
	// carries end to end. It must not encode the client's address.
	Name string
	Role Role
	// PSK authenticates every link this node forms (requirement 2 applies
	// per hop: keys are arranged out of band, never over the mesh).
	PSK []byte
	// Advertise lists the prefixes this node terminates (exits).
	Advertise []inet.Prefix
}

// Overlay errors.
var (
	// ErrNoRoute: no reachable overlay route covers the destination.
	ErrNoRoute = errors.New("vpn: no overlay route to destination")
	// ErrStreamReset: the far side or a relay reset the stream.
	ErrStreamReset = errors.New("vpn: overlay stream reset")
	// ErrLinkDown: the link carrying the stream died.
	ErrLinkDown = errors.New("vpn: overlay link down")
)

// Node is one overlay participant on a host.
type Node struct {
	cfg NodeConfig
	ip  *ipv4.Stack
	t   *tcp.Stack

	links   []*link
	nextSeq int
	rt      routeTable

	handlers map[inet.Port]func(*Stream)

	// MangleForward, when set on a relay, rewrites every forwarded stream
	// payload — the E13 hostile-relay hook. The overlay does not (and must
	// not need to) detect this: the end-to-end tunnel's record MACs do.
	MangleForward func(payload []byte) []byte

	// Counters.
	RouteAdsIn, RouteAdsOut uint64
	RouteChanges            uint64
	StreamsOpened           uint64 // streams this node originated
	StreamsAccepted         uint64 // streams terminated locally
	StreamsForwarded        uint64 // transit streams relayed
	StreamsRefused          uint64 // opens rejected (no route / no transit)
	FramesForwarded         uint64
	StreamResets            uint64
}

// NewNode builds an overlay node on a host's stacks. Call Listen to accept
// inbound links and AddPeer to dial outbound ones.
func NewNode(ip *ipv4.Stack, t *tcp.Stack, cfg NodeConfig) *Node {
	return &Node{
		cfg: cfg, ip: ip, t: t,
		rt:       newRouteTable(),
		handlers: make(map[inet.Port]func(*Stream)),
	}
}

// Name reports the node's origin pseudonym.
func (n *Node) Name() string { return n.cfg.Name }

// Handle registers a local stream acceptor for a destination port on this
// node's advertised prefixes.
func (n *Node) Handle(port inet.Port, h func(*Stream)) { n.handlers[port] = h }

// RouteDump renders the routing table deterministically.
func (n *Node) RouteDump() string { return n.rt.dump() }

// ReachablePrefixes reports the currently routable prefixes (beyond the
// node's own) in first-learned order.
func (n *Node) ReachablePrefixes() []inet.Prefix { return n.rt.reachable() }

// LinksUp counts established links.
func (n *Node) LinksUp() int {
	up := 0
	for _, l := range n.links {
		if l.p.state == stateUp {
			up++
		}
	}
	return up
}

// LinkReconnects sums redial attempts across dialed links — the healing
// effort the chaos schedule forced on this node.
func (n *Node) LinkReconnects() uint64 {
	var s uint64
	for _, l := range n.links {
		s += l.p.Reconnects
	}
	return s
}

// PeerAddrs lists the addresses of this node's dialed neighbours in AddPeer
// order (deduplicated). ConnectOverlay pins these to the physical network so
// the full-tunnel routes can never capture the mesh's own carriers.
func (n *Node) PeerAddrs() []inet.Addr {
	var out []inet.Addr
	seen := make(map[inet.Addr]bool)
	for _, l := range n.links {
		if l.dial == (inet.HostPort{}) || seen[l.dial.Addr] {
			continue
		}
		seen[l.dial.Addr] = true
		out = append(out, l.dial.Addr)
	}
	return out
}

// TamperDetected sums per-hop record MAC failures across this node's links.
func (n *Node) TamperDetected() uint64 {
	var s uint64
	for _, l := range n.links {
		s += l.p.TamperDetected()
	}
	return s
}

// link is one overlay adjacency: a peer state machine bound to a TCP
// carrier, plus the streams multiplexed over it.
type link struct {
	n    *Node
	seq  int
	p    *peer
	dial inet.HostPort // zero on accepted links
	conn *tcp.Conn

	streams map[uint32]*linkStream
	order   []uint32 // stream ids in creation order (deterministic teardown)
	nextID  uint32   // odd on the dialing side, even on the accepting side
}

// AddPeer dials a persistent link to a neighbour. The link heals itself: if
// the carrier dies or the neighbour goes silent, it backs off and redials
// forever (the mesh may heal arbitrarily later).
func (n *Node) AddPeer(addr inet.HostPort) {
	l := &link{
		n: n, seq: n.nextSeq, dial: addr,
		streams: make(map[uint32]*linkStream), nextID: 1,
	}
	n.nextSeq++
	l.p = newPeer(n.ip.Kernel(), n.cfg.PSK, true)
	l.p.onUp = func() { n.linkUp(l) }
	l.p.onDown = func() { n.linkDown(l) }
	l.p.onFrame = func(typ byte, body []byte) { n.handleFrame(l, typ, body) }
	l.p.redial = func() { l.redial() }
	n.links = append(n.links, l)
	l.redial()
}

// Listen accepts inbound links on the overlay port.
func (n *Node) Listen() error {
	ln, err := n.t.Listen(OverlayPort)
	if err != nil {
		return err
	}
	ln.OnAccept = func(conn *tcp.Conn) { n.acceptLink(conn) }
	return nil
}

// acceptLink builds the responding side of a link. Accepted links are
// ephemeral: the dialer owns recovery, so when this one dies it is removed
// and the dialer's replacement carrier arrives as a fresh link.
func (n *Node) acceptLink(conn *tcp.Conn) {
	l := &link{
		n: n, seq: n.nextSeq,
		streams: make(map[uint32]*linkStream), nextID: 2,
	}
	n.nextSeq++
	l.p = newPeer(n.ip.Kernel(), n.cfg.PSK, false)
	l.p.onUp = func() { n.linkUp(l) }
	l.p.onDown = func() { n.linkDown(l) }
	l.p.onFrame = func(typ byte, body []byte) { n.handleFrame(l, typ, body) }
	n.links = append(n.links, l)
	l.attach(conn)
	l.p.armTimeout()
}

// redial replaces the carrier on a dialed link.
func (l *link) redial() {
	p := l.p
	// Orphan the previous carrier before killing it so its late callbacks
	// (stale generation) cannot re-enter the machinery.
	p.gen++
	if l.conn != nil {
		l.conn.Abort()
		l.conn = nil
	}
	p.rx = frameStream{}
	conn, err := l.n.t.Dial(l.dial)
	if err != nil {
		p.retry()
		return
	}
	l.attach(conn)
	p.armTimeout()
}

// attach binds a TCP carrier to the link's peer state machine.
func (l *link) attach(conn *tcp.Conn) {
	l.conn = conn
	p := l.p
	gen := p.gen
	p.send = func(msg []byte) { _ = conn.Write(msg) }
	p.abort = conn.Abort
	if p.dialer {
		conn.OnConnect = func() {
			if gen != p.gen {
				return
			}
			p.begin()
		}
	}
	conn.OnData = func(b []byte) {
		if gen != p.gen {
			return
		}
		for _, m := range p.rx.push(b) {
			p.handleMsg(m)
		}
	}
	conn.OnClose = func(err error) {
		if gen != p.gen || p.state == stateDown {
			return
		}
		if p.state == stateUp || !p.dialer {
			// Established link (either side) or any responder carrier: the
			// peer is already known dead, no need to wait out the DPD silence.
			p.peerDead()
			return
		}
		// Dialer mid-handshake: back off and redial.
		p.state = stateIdle
		p.gen++
		p.retry()
	}
}

// linkBySeq resolves a link sequence number (nil if gone).
func (n *Node) linkBySeq(seq int) *link {
	for _, l := range n.links {
		if l.seq == seq {
			return l
		}
	}
	return nil
}

// removeLink drops a dead accepted link from the node.
func (n *Node) removeLink(dead *link) {
	for i, l := range n.links {
		if l == dead {
			n.links = append(n.links[:i], n.links[i+1:]...)
			return
		}
	}
}

// linkUp runs when a link establishes (first time or after healing): the
// fresh neighbour gets a full routing advertisement.
func (n *Node) linkUp(l *link) {
	n.sendFullAd(l)
}

// linkDown runs when a link dies after being up: every stream it carried is
// reset (propagating along forwarding pairs so nothing hangs mid-chain), its
// learned routes are withdrawn, and the change floods to the surviving
// neighbours — which is what makes failover happen.
func (n *Node) linkDown(l *link) {
	n.resetLinkStreams(l, ErrLinkDown)
	changed := n.rt.dropLink(l.seq)
	if !l.p.dialer {
		n.removeLink(l)
	}
	if len(changed) > 0 {
		n.RouteChanges += uint64(len(changed))
		n.floodPrefixes(changed, nil)
	}
}

// handleFrame dispatches one sealed overlay frame from a link.
func (n *Node) handleFrame(l *link, typ byte, body []byte) {
	switch typ {
	case ovRouteAdv:
		n.handleRouteAd(l, body)
	case ovStreamOpen:
		n.handleStreamOpen(l, body)
	case ovStreamData:
		n.handleStreamData(l, body)
	case ovStreamClose:
		n.handleStreamClose(l, body)
	case ovStreamReset:
		n.handleStreamReset(l, body)
	}
}

// isLocalDst reports whether this node terminates dst.
func (n *Node) isLocalDst(dst inet.Addr) bool {
	for _, p := range n.cfg.Advertise {
		if p.Contains(dst) {
			return true
		}
	}
	return false
}

// handleRouteAd folds a neighbour's advertisement into the table and floods
// any resulting best-route changes onward.
func (n *Node) handleRouteAd(l *link, body []byte) {
	entries, ok := decodeRouteAd(body)
	if !ok {
		return
	}
	n.RouteAdsIn++
	var changed []inet.Prefix
	for _, e := range entries {
		if n.isLocalDst(e.prefix.Addr) {
			continue // our own prefixes are never learned from the mesh
		}
		hops := e.hops
		if hops >= maxHops {
			hops = maxHops // any over-limit metric is a withdrawal
		}
		if n.rt.update(e.prefix, l.seq, hops) {
			changed = append(changed, e.prefix)
		}
	}
	if len(changed) > 0 {
		n.RouteChanges += uint64(len(changed))
		n.floodPrefixes(changed, l)
	}
}

// adFor builds the advertisement entry for one prefix toward one neighbour:
// local prefixes at 1 hop, learned ones at best+1, and poisoned reverse
// (unreachable) back toward the prefix's own next hop so two nodes cannot
// bounce a dead route between each other.
func (n *Node) adFor(p inet.Prefix, to *link) adEntry {
	for _, lp := range n.cfg.Advertise {
		if lp == p {
			return adEntry{prefix: p, hops: 1}
		}
	}
	b, ok := n.rt.best[p]
	if !ok || b.linkSeq == to.seq || b.hops+1 >= maxHops {
		return adEntry{prefix: p, hops: hopsUnreachable}
	}
	return adEntry{prefix: p, hops: b.hops + 1}
}

// sendFullAd advertises everything this node can reach to one neighbour.
// Clients advertise nothing: they must never draw transit traffic.
func (n *Node) sendFullAd(l *link) {
	if n.cfg.Role == RoleClient {
		return
	}
	var entries []adEntry
	for _, p := range n.cfg.Advertise {
		entries = append(entries, adEntry{prefix: p, hops: 1})
	}
	for _, p := range n.rt.order {
		if e := n.adFor(p, l); e.hops != hopsUnreachable {
			entries = append(entries, e)
		}
	}
	if len(entries) == 0 {
		return
	}
	n.RouteAdsOut++
	l.p.sendFrame(ovRouteAdv, encodeRouteAd(entries))
}

// floodPrefixes pushes changed prefixes to every up link except the one the
// change arrived on (the neighbour already knows; poisoned reverse covers
// the loop case for everyone else).
func (n *Node) floodPrefixes(prefixes []inet.Prefix, from *link) {
	if n.cfg.Role == RoleClient {
		return
	}
	for _, l := range n.links {
		if l == from || l.p.state != stateUp {
			continue
		}
		entries := make([]adEntry, 0, len(prefixes))
		for _, p := range prefixes {
			entries = append(entries, n.adFor(p, l))
		}
		n.RouteAdsOut++
		l.p.sendFrame(ovRouteAdv, encodeRouteAd(entries))
	}
}

// forwardLink picks the outbound link for dst: longest-prefix match, then
// the link must actually be up.
func (n *Node) forwardLink(dst inet.Addr) (*link, error) {
	seq, ok := n.rt.lookup(dst)
	if !ok {
		return nil, ErrNoRoute
	}
	l := n.linkBySeq(seq)
	if l == nil || l.p.state != stateUp {
		return nil, ErrNoRoute
	}
	return l, nil
}
