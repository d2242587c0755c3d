package vpn

import (
	"fmt"

	"repro/internal/inet"
	"repro/internal/ipv4"
	"repro/internal/sim"
)

// The end-to-end tunnel over the overlay: the client's carrier is an
// overlay stream instead of a raw TCP connection, so the tunnel reaches the
// endpoint through whatever relay chain the routing table picks — and when
// a relay dies, the client's DPD notices, the redial opens a NEW stream
// over the (possibly re-routed) mesh, and the server recognises the client
// by its origin pseudonym so the rekeyed session keeps its tunnel address.
// Relays only ever see the doubly-sealed records.

// ConnectOverlay brings the end-to-end tunnel up with an overlay stream as
// carrier. node must be a RoleClient overlay node on the same host; the
// route to cfg.Server must already be advertised (give the mesh a moment to
// converge before connecting — exactly like waiting for a DHCP lease).
func ConnectOverlay(ip *ipv4.Stack, node *Node, cfg ClientConfig) (*Client, error) {
	cfg.fill()
	c := newClient(ip, cfg)
	// The overlay carrier always needs the reconnect ladder (a no-route
	// OpenStream backs off and retries even without DPD), so default it even
	// when fill() skipped the keepalive block.
	if c.bo.base == 0 {
		c.bo = backoff{base: sim.Second, max: 30 * sim.Second}
	}
	// Pin every dialed neighbour's path to the physical network NOW, before
	// the tunnel's redirect-gateway routes exist: the mesh carriers must
	// never be routed into the tunnel they carry. (bringUp pins cfg.Server
	// the same way, but overlay carriers flow to the relays, not the exit.)
	for _, addr := range node.PeerAddrs() {
		if r, ok := ip.LookupRoute(addr); ok && r.Iface != tunName {
			ip.AddRoute(ipv4.Route{
				Prefix:  inet.Prefix{Addr: addr, Bits: 32},
				Gateway: r.Gateway, Iface: r.Iface,
			})
		}
	}
	var cur *Stream
	attach := func(st *Stream) {
		cur = st
		c.carrierGen++
		gen := c.carrierGen
		c.sendMsg = func(msg []byte) { st.Write(msg) }
		c.abort = st.Reset
		st.OnData = func(b []byte) {
			if gen != c.carrierGen {
				return // late frames from a replaced stream
			}
			for _, m := range c.stream.push(b) {
				c.handleMsg(m)
			}
		}
		st.OnClose = func(err error) {
			if gen != c.carrierGen {
				return
			}
			switch {
			case c.state == stateUp && c.cfg.Keepalive > 0:
				// The chain died under an established tunnel: the redial
				// will re-route over whatever the mesh still has.
				c.peerDead()
			case c.state != stateUp && c.state != stateDown:
				if c.healing {
					c.state = stateIdle
					c.scheduleReconnect()
				} else {
					c.fail(fmt.Errorf("vpn: overlay carrier reset during handshake: %w", errOr(err)))
				}
			}
		}
	}
	c.redial = func() {
		// Orphan the dead stream before killing it so its OnClose (stale
		// generation) cannot re-enter the reconnect machinery.
		c.carrierGen++
		if cur != nil {
			cur.Reset()
			cur = nil
		}
		c.stream = frameStream{} // drop half-parsed bytes from the dead carrier
		st, err := node.OpenStream(cfg.Server)
		if err != nil {
			// No route right now (mid-failover): back off while the mesh
			// re-converges.
			c.scheduleReconnect()
			return
		}
		attach(st)
		c.begin()
		c.armTimeout()
	}
	st, err := node.OpenStream(cfg.Server)
	if err != nil {
		// The mesh has not converged a route to the exit yet (a client that
		// boots faster than its relays). Not terminal: ride the backoff
		// ladder until the first advertisement lands.
		c.scheduleReconnect()
		return c, nil
	}
	attach(st)
	c.begin()
	c.armTimeout()
	return c, nil
}

// NewServerStream starts the tunnel endpoint on an overlay node (normally
// the exit): inbound streams to the tunnel port are carriers. Sessions are
// keyed by the stream's origin pseudonym, so when a client's chain is
// rebuilt through different relays its re-handshake lands in the SAME
// session and keeps the reserved tunnel address — inner connections ride
// out the failover. A per-session carrier generation guards against stale
// streams: once the replacement carrier arrives, frames still in flight on
// the pre-failover chain are dropped on delivery.
func NewServerStream(node *Node, cfg ServerConfig) (*Server, error) {
	s := newServer(node.ip, cfg)
	byOrigin := make(map[string]*session)
	node.Handle(DefaultPort, func(st *Stream) {
		sess, ok := byOrigin[st.Origin]
		if !ok {
			sess = &session{}
			byOrigin[st.Origin] = sess
		}
		sess.gen++
		gen := sess.gen
		sess.stream = frameStream{} // the new carrier starts a fresh framing state
		sess.send = func(msg []byte) {
			if gen != sess.gen {
				return
			}
			st.Write(msg)
		}
		st.OnData = func(b []byte) {
			if gen != sess.gen {
				return // stale carrier from the pre-failover chain
			}
			for _, m := range sess.stream.push(b) {
				s.handleMsg(sess, m)
			}
		}
		// No teardown on close: the session (and its tunnel address) stays
		// reserved for the rebuilt chain, exactly like the UDP carrier.
	})
	return s, nil
}
