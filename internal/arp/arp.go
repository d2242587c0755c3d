// Package arp implements the Address Resolution Protocol over the simulated
// L2, plus the proxy-ARP bridge daemon ("parprouted") from the paper's
// Appendix A that turns the attacker's laptop into a transparent gateway
// between its rogue-AP interface and its client interface on the real
// network.
package arp

import (
	"encoding/binary"
	"errors"

	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/sim"
)

// Opcodes.
const (
	OpRequest uint16 = 1
	OpReply   uint16 = 2
)

// Packet is an ARP packet for IPv4 over Ethernet.
type Packet struct {
	Op       uint16
	SenderHW ethernet.MAC
	SenderIP inet.Addr
	TargetHW ethernet.MAC
	TargetIP inet.Addr
}

// packetLen is the wire size of an IPv4-over-Ethernet ARP packet.
const packetLen = 28

// Marshal serialises the packet.
func (p *Packet) Marshal() []byte {
	b := make([]byte, packetLen)
	binary.BigEndian.PutUint16(b[0:2], 1)      // htype: ethernet
	binary.BigEndian.PutUint16(b[2:4], 0x0800) // ptype: IPv4
	b[4], b[5] = 6, 4                          // hlen, plen
	binary.BigEndian.PutUint16(b[6:8], p.Op)
	copy(b[8:14], p.SenderHW[:])
	copy(b[14:18], p.SenderIP[:])
	copy(b[18:24], p.TargetHW[:])
	copy(b[24:28], p.TargetIP[:])
	return b
}

// ErrBadPacket reports an unparseable or non-IPv4/Ethernet ARP packet.
var ErrBadPacket = errors.New("arp: bad packet")

// Unmarshal parses a serialised ARP packet.
func Unmarshal(b []byte) (Packet, error) {
	if len(b) < packetLen {
		return Packet{}, ErrBadPacket
	}
	if binary.BigEndian.Uint16(b[0:2]) != 1 || binary.BigEndian.Uint16(b[2:4]) != 0x0800 ||
		b[4] != 6 || b[5] != 4 {
		return Packet{}, ErrBadPacket
	}
	var p Packet
	p.Op = binary.BigEndian.Uint16(b[6:8])
	copy(p.SenderHW[:], b[8:14])
	copy(p.SenderIP[:], b[14:18])
	copy(p.TargetHW[:], b[18:24])
	copy(p.TargetIP[:], b[24:28])
	return p, nil
}

// Resolution and cache timing: learned entries stay fresh for cacheTTL, each
// request attempt waits requestTimeout, and a resolution gives up after
// maxRetries attempts.
const (
	cacheTTL       = 60 * sim.Second
	requestTimeout = sim.Second
	maxRetries     = 3
)

type cacheEntry struct {
	mac     ethernet.MAC
	learned sim.Time
}

type pending struct {
	attempts  int
	callbacks []func(ethernet.MAC, error)
	timer     sim.Timer
}

// ErrTimeout is reported to Resolve callbacks when no reply arrives.
var ErrTimeout = errors.New("arp: resolution timed out")

// Client is one interface's ARP engine: it answers requests for the local
// address, learns from traffic, and resolves on demand.
type Client struct {
	kernel *sim.Kernel
	nic    ethernet.NIC
	ip     inet.Addr
	cache  map[inet.Addr]cacheEntry
	wait   map[inet.Addr]*pending

	// Observer, if set, sees every ARP packet received on the interface —
	// the hook parprouted and the detectors use.
	Observer func(p Packet)

	// ProxyFor, if set, makes the client answer requests for foreign
	// addresses it returns true for, with this interface's MAC. This is
	// the proxy-ARP half of parprouted.
	ProxyFor func(ip inet.Addr) bool

	// Counters.
	RequestsSent, RepliesSent, RequestsSeen, RepliesSeen uint64
	// Expiries counts cache entries evicted by TTL. Traffic learned after an
	// expiry needs a fresh who-has round trip.
	Expiries uint64
}

// NewClient attaches an ARP engine to a NIC. Note: the engine does not take
// over the NIC receiver; the owner (usually ipv4.Stack) must route EtherType
// ARP frames to HandleFrame.
func NewClient(k *sim.Kernel, nic ethernet.NIC, ip inet.Addr) *Client {
	c := &Client{
		kernel: k,
		nic:    nic,
		ip:     ip,
		cache:  make(map[inet.Addr]cacheEntry),
		wait:   make(map[inet.Addr]*pending),
	}
	k.RegisterInvariant("arp/cache-consistency", c.checkConsistency)
	return c
}

// checkConsistency is a sim invariant: cache entries can only have been
// learned in the past, and every pending resolution is mid-retry with at
// least one waiter. An unspecified cached address means learn()'s filter was
// bypassed.
func (c *Client) checkConsistency() error {
	now := c.kernel.Now()
	// Any violation aborts the run; only the first-error text varies with
	// iteration order, never simulation state. This check runs after every
	// event with checking enabled, and collecting+sorting the keys each time
	// dominated chaos-run profiles (the cost of the sort, not the check).
	//simvet:allow maporder invariant check is order-independent: any hit aborts, and sorting addr keys per event boundary costs more than the check
	for ip, e := range c.cache {
		if e.learned > now {
			return errors.New("arp: cache entry for " + ip.String() + " learned in the future")
		}
		if now-e.learned > cacheTTL {
			return errors.New("arp: stale cache entry for " + ip.String() + " outlived its TTL eviction")
		}
		if ip.IsUnspecified() {
			return errors.New("arp: cache entry for unspecified address")
		}
	}
	//simvet:allow maporder invariant check is order-independent: any hit aborts, and sorting addr keys per event boundary costs more than the check
	for ip, p := range c.wait {
		if p.attempts < 1 || p.attempts > maxRetries {
			return errors.New("arp: pending resolution for " + ip.String() + " with attempt count out of range")
		}
		if len(p.callbacks) == 0 {
			return errors.New("arp: pending resolution for " + ip.String() + " with no waiters")
		}
	}
	return nil
}

// IP reports the protocol address the client answers for.
func (c *Client) IP() inet.Addr { return c.ip }

// Lookup consults the cache without generating traffic.
func (c *Client) Lookup(ip inet.Addr) (ethernet.MAC, bool) {
	e, ok := c.cache[ip]
	if !ok || c.kernel.Now()-e.learned > cacheTTL {
		return ethernet.MAC{}, false
	}
	return e.mac, true
}

// learn inserts a mapping and arms its TTL eviction.
func (c *Client) learn(ip inet.Addr, mac ethernet.MAC) {
	if ip.IsUnspecified() {
		return
	}
	_, had := c.cache[ip]
	c.cache[ip] = cacheEntry{mac: mac, learned: c.kernel.Now()}
	if !had {
		c.armExpiry(ip, c.kernel.Now()+cacheTTL)
	}
	if p, ok := c.wait[ip]; ok {
		delete(c.wait, ip)
		p.timer.Cancel()
		for _, cb := range p.callbacks {
			cb(mac, nil)
		}
	}
}

// armExpiry schedules eviction of ip's cache entry at its TTL deadline. A
// refresh between arming and firing just re-arms for the new deadline, so
// each live entry carries exactly one outstanding timer.
func (c *Client) armExpiry(ip inet.Addr, at sim.Time) {
	c.kernel.At(at, func() {
		e, ok := c.cache[ip]
		if !ok {
			return
		}
		if deadline := e.learned + cacheTTL; deadline > c.kernel.Now() {
			c.armExpiry(ip, deadline)
			return
		}
		delete(c.cache, ip)
		c.Expiries++
	})
}

// Resolve invokes cb with the MAC for ip, sending requests as needed. The
// callback may fire synchronously on a cache hit.
func (c *Client) Resolve(ip inet.Addr, cb func(ethernet.MAC, error)) {
	if mac, ok := c.Lookup(ip); ok {
		cb(mac, nil)
		return
	}
	if p, ok := c.wait[ip]; ok {
		p.callbacks = append(p.callbacks, cb)
		return
	}
	p := &pending{callbacks: []func(ethernet.MAC, error){cb}}
	c.wait[ip] = p
	c.sendRequest(ip, p)
}

func (c *Client) sendRequest(ip inet.Addr, p *pending) {
	p.attempts++
	c.RequestsSent++
	req := Packet{Op: OpRequest, SenderHW: c.nic.HWAddr(), SenderIP: c.ip, TargetIP: ip}
	c.send(ethernet.BroadcastMAC, req)
	p.timer = c.kernel.After(requestTimeout, func() {
		if _, still := c.wait[ip]; !still {
			return
		}
		if p.attempts >= maxRetries {
			delete(c.wait, ip)
			for _, cb := range p.callbacks {
				cb(ethernet.MAC{}, ErrTimeout)
			}
			return
		}
		c.sendRequest(ip, p)
	})
}

// Announce sends a gratuitous ARP for the local address.
func (c *Client) Announce() {
	g := Packet{Op: OpRequest, SenderHW: c.nic.HWAddr(), SenderIP: c.ip, TargetIP: c.ip}
	c.send(ethernet.BroadcastMAC, g)
}

// send transmits p to dst in a pooled copy of its wire form.
func (c *Client) send(dst ethernet.MAC, p Packet) {
	c.nic.SendBuf(dst, ethernet.TypeARP, c.kernel.BufPool().GetCopy(p.Marshal()))
}

// HandleFrame processes a received ARP payload.
func (c *Client) HandleFrame(payload []byte) {
	p, err := Unmarshal(payload)
	if err != nil {
		return
	}
	if c.Observer != nil {
		c.Observer(p)
	}
	// Learn the sender either way (standard ARP behaviour, and the cache
	// poisoning vector: replies are not authenticated).
	c.learn(p.SenderIP, p.SenderHW)
	switch p.Op {
	case OpRequest:
		c.RequestsSeen++
		answer := p.TargetIP == c.ip ||
			(c.ProxyFor != nil && p.TargetIP != p.SenderIP && c.ProxyFor(p.TargetIP))
		if answer {
			c.RepliesSent++
			resp := Packet{
				Op:       OpReply,
				SenderHW: c.nic.HWAddr(), SenderIP: p.TargetIP,
				TargetHW: p.SenderHW, TargetIP: p.SenderIP,
			}
			c.send(p.SenderHW, resp)
		}
	case OpReply:
		c.RepliesSeen++
	}
}
