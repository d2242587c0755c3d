package ipv4

import (
	"fmt"
	"sort"

	"repro/internal/arp"
	"repro/internal/ethernet"
	"repro/internal/inet"
	pktbuf "repro/internal/pkt"
	"repro/internal/sim"
)

// HookPoint identifies where in the datapath a firewall hook runs —
// Netfilter's five classic chains.
type HookPoint int

// Hook points in packet-flow order.
const (
	HookPrerouting HookPoint = iota
	HookInput
	HookForward
	HookOutput
	HookPostrouting
)

// String names the hook point.
func (h HookPoint) String() string {
	switch h {
	case HookPrerouting:
		return "PREROUTING"
	case HookInput:
		return "INPUT"
	case HookForward:
		return "FORWARD"
	case HookOutput:
		return "OUTPUT"
	case HookPostrouting:
		return "POSTROUTING"
	}
	return "?"
}

// Verdict is a hook's decision.
type Verdict int

// Verdicts.
const (
	VerdictAccept Verdict = iota
	VerdictDrop
)

// Hook inspects (and may rewrite — NAT) a packet at a hook point. in/out
// are interface names ("" when not applicable).
type Hook interface {
	Filter(point HookPoint, pkt *Packet, in, out string) Verdict
}

// Handler consumes locally delivered packets of one protocol.
type Handler func(pkt *Packet, in string)

// Iface is one attachment of the stack to an L2 segment.
type Iface struct {
	Name   string
	NIC    ethernet.NIC
	Addr   inet.Addr
	Prefix inet.Prefix
	ARP    *arp.Client
	stack  *Stack
}

// Route is a routing-table entry. A zero Gateway means directly connected.
type Route struct {
	Prefix  inet.Prefix
	Gateway inet.Addr
	Iface   string
	Metric  int
}

// Stack is a host's IPv4 engine.
type Stack struct {
	kernel *sim.Kernel
	name   string
	ifaces []*Iface
	routes []Route
	// Forwarding enables routing between interfaces ("echo 1 >
	// /proc/sys/net/ipv4/ip_forward" in the paper's Appendix A).
	Forwarding  bool
	hooks       []Hook
	handlers    map[uint8]Handler
	nextID      uint16
	rng         *sim.RNG
	onEchoReply EchoCallback
	// partitioned isolates the host at L3: everything in or out is dropped
	// (the partition fault — an unplugged router, a dead VLAN).
	partitioned bool

	// Loop guard: outer bound on local deliver->send recursion via
	// loopback-style patterns. (Defensive; not normally hit.)

	// Counters.
	RxPackets, TxPackets, Forwarded uint64
	RxDropped, TTLExpired, NoRoute  uint64
	HookDrops, ChecksumErrors       uint64
	PartitionDrops                  uint64
}

// SetPartitioned cuts the host off the network (true) or reconnects it
// (false). While partitioned, every arriving frame (including ARP) and every
// outbound routed packet is dropped and counted in PartitionDrops; local
// loopback delivery still works, as it would on a real host.
func (s *Stack) SetPartitioned(on bool) { s.partitioned = on }

// Partitioned reports whether the host is currently isolated.
func (s *Stack) Partitioned() bool { return s.partitioned }

// NewStack creates a host stack named name (see Name).
func NewStack(k *sim.Kernel, name string) *Stack {
	return &Stack{
		kernel:   k,
		name:     name,
		handlers: make(map[uint8]Handler),
		rng:      k.RNG().Fork(),
	}
}

// Name reports the host name.
func (s *Stack) Name() string { return s.name }

// Kernel exposes the simulation kernel for transport layers built on top.
func (s *Stack) Kernel() *sim.Kernel { return s.kernel }

// AddIface attaches a NIC with an address, creating the connected route and
// the interface's ARP engine.
func (s *Stack) AddIface(name string, nic ethernet.NIC, addr inet.Addr, prefix inet.Prefix) *Iface {
	ifc := &Iface{
		Name:   name,
		NIC:    nic,
		Addr:   addr,
		Prefix: prefix,
		ARP:    arp.NewClient(s.kernel, nic, addr),
		stack:  s,
	}
	s.ifaces = append(s.ifaces, ifc)
	nic.SetReceiver(func(f ethernet.Frame) { s.onFrame(ifc, f) })
	s.AddRoute(Route{Prefix: prefix, Iface: name})
	return ifc
}

// Iface returns the named interface, or nil.
func (s *Stack) Iface(name string) *Iface {
	for _, ifc := range s.ifaces {
		if ifc.Name == name {
			return ifc
		}
	}
	return nil
}

// AddRoute installs a route. Routes are matched longest-prefix-first, then
// by metric.
func (s *Stack) AddRoute(r Route) {
	s.routes = append(s.routes, r)
	sort.SliceStable(s.routes, func(i, j int) bool {
		if s.routes[i].Prefix.Bits != s.routes[j].Prefix.Bits {
			return s.routes[i].Prefix.Bits > s.routes[j].Prefix.Bits
		}
		return s.routes[i].Metric < s.routes[j].Metric
	})
}

// AddHostRoute installs a /32 route via an interface — parprouted's
// route-installation callback.
func (s *Stack) AddHostRoute(ip inet.Addr, iface string) {
	s.AddRoute(Route{Prefix: inet.Prefix{Addr: ip, Bits: 32}, Iface: iface})
}

// AddDefaultRoute installs 0.0.0.0/0 via gw.
func (s *Stack) AddDefaultRoute(gw inet.Addr, iface string) {
	s.AddRoute(Route{Prefix: inet.MustParsePrefix("0.0.0.0/0"), Gateway: gw, Iface: iface})
}

// LookupRoute returns the best route for dst.
func (s *Stack) LookupRoute(dst inet.Addr) (Route, bool) {
	for _, r := range s.routes {
		if r.Prefix.Contains(dst) {
			return r, true
		}
	}
	return Route{}, false
}

// AddHook appends a firewall hook (evaluated in registration order).
func (s *Stack) AddHook(h Hook) { s.hooks = append(s.hooks, h) }

// Handle registers the local-delivery handler for an IP protocol.
func (s *Stack) Handle(proto uint8, h Handler) { s.handlers[proto] = h }

// IsLocal reports whether addr is one of the stack's own addresses or a
// broadcast address it should accept.
func (s *Stack) IsLocal(addr inet.Addr) bool {
	if addr.IsBroadcast() {
		return true
	}
	for _, ifc := range s.ifaces {
		if ifc.Addr == addr || ifc.Prefix.BroadcastAddr() == addr {
			return true
		}
	}
	return false
}

// SrcAddrFor picks a source address for reaching dst (the egress
// interface's address).
func (s *Stack) SrcAddrFor(dst inet.Addr) (inet.Addr, error) {
	r, ok := s.LookupRoute(dst)
	if !ok {
		return inet.Addr{}, fmt.Errorf("ipv4: no route to %s", dst)
	}
	ifc := s.Iface(r.Iface)
	if ifc == nil {
		return inet.Addr{}, fmt.Errorf("ipv4: route via missing interface %q", r.Iface)
	}
	return ifc.Addr, nil
}

func (s *Stack) runHooks(point HookPoint, pkt *Packet, in, out string) Verdict {
	for _, h := range s.hooks {
		if h.Filter(point, pkt, in, out) == VerdictDrop {
			s.HookDrops++
			return VerdictDrop
		}
	}
	return VerdictAccept
}

// SendBuf originates a packet from this host; it is the stack's only
// transmit path. The payload sits in an owned buffer and the IP header is
// pushed into its headroom. Src may be unspecified, in which case the egress
// interface address is used. Ownership of pb transfers to the stack: it is
// released exactly once on every path, including errors.
func (s *Stack) SendBuf(src, dst inet.Addr, proto uint8, pb *pktbuf.Buf) error {
	if src.IsUnspecified() {
		var err error
		src, err = s.SrcAddrFor(dst)
		if err != nil {
			pb.Release()
			return err
		}
	}
	s.nextID++
	pkt := &Packet{
		ID: s.nextID, TTL: DefaultTTL, Proto: proto,
		Src: src, Dst: dst, Payload: pb.Bytes(),
	}
	if s.runHooks(HookOutput, pkt, "", "") == VerdictDrop {
		pb.Release()
		return fmt.Errorf("ipv4: packet dropped by OUTPUT hook")
	}
	// Own unicast destination: deliver without touching the wire. The
	// payload stays valid for the duration of the synchronous delivery.
	for _, ifc := range s.ifaces {
		if ifc.Addr == pkt.Dst {
			s.kernel.After(0, func() {
				s.deliverLocal(pkt, "lo")
				pb.Release()
			})
			return nil
		}
	}
	return s.route(pkt, "", pb)
}

// route finds the egress and transmits (used by SendBuf and forwarding).
// pb, when non-nil, is an owned pooled buffer whose view is pkt.Payload;
// route takes ownership, pushes the IP header into its headroom, and
// releases it on every failure path. Forwarding passes nil: the received
// payload is a view the stack does not own, so it is copied into a fresh
// pooled buffer at transmit time.
//
//simvet:owner transfer owns pb (which may be nil) and settles it on every path
func (s *Stack) route(pkt *Packet, inIface string, pb *pktbuf.Buf) error {
	release := func() {
		if pb != nil {
			pb.Release()
		}
	}
	if s.partitioned {
		s.PartitionDrops++
		release()
		return fmt.Errorf("ipv4: %s is partitioned", s.name)
	}
	r, ok := s.LookupRoute(pkt.Dst)
	if !ok {
		s.NoRoute++
		release()
		return fmt.Errorf("ipv4: no route to %s", pkt.Dst)
	}
	ifc := s.Iface(r.Iface)
	if ifc == nil {
		s.NoRoute++
		release()
		return fmt.Errorf("ipv4: route via missing interface %q", r.Iface)
	}
	if s.runHooks(HookPostrouting, pkt, inIface, ifc.Name) == VerdictDrop {
		release()
		return fmt.Errorf("ipv4: packet dropped by POSTROUTING hook")
	}
	nextHop := pkt.Dst
	if !r.Gateway.IsUnspecified() {
		nextHop = r.Gateway
	}
	s.TxPackets++
	if pb == nil {
		pb = s.kernel.BufPool().GetCopy(pkt.Payload)
	}
	total := HeaderLen + pb.Len()
	pkt.putHeader(pb.Push(HeaderLen), total)
	// Subnet broadcast goes to the L2 broadcast address.
	if pkt.Dst.IsBroadcast() || pkt.Dst == ifc.Prefix.BroadcastAddr() {
		ifc.NIC.SendBuf(ethernet.BroadcastMAC, ethernet.TypeIPv4, pb)
		return nil
	}
	// A cache hit sends directly: Lookup is a pure cache read, and Resolve
	// would only call back at once with the same answer. Only a miss pays
	// for the callback.
	if mac, ok := ifc.ARP.Lookup(nextHop); ok {
		ifc.NIC.SendBuf(mac, ethernet.TypeIPv4, pb)
		return nil
	}
	ifc.ARP.Resolve(nextHop, func(mac ethernet.MAC, err error) {
		if err != nil {
			pb.Release()
			return
		}
		ifc.NIC.SendBuf(mac, ethernet.TypeIPv4, pb)
	})
	return nil
}

// onFrame handles an L2 frame arriving on ifc.
func (s *Stack) onFrame(ifc *Iface, f ethernet.Frame) {
	if s.partitioned {
		s.PartitionDrops++
		return
	}
	switch f.Type {
	case ethernet.TypeARP:
		ifc.ARP.HandleFrame(f.Payload)
	case ethernet.TypeIPv4:
		s.onPacket(ifc, f.Payload)
	}
}

func (s *Stack) onPacket(ifc *Iface, raw []byte) {
	pkt, err := Unmarshal(raw)
	if err != nil {
		if err == ErrBadChecksum {
			s.ChecksumErrors++
		}
		s.RxDropped++
		return
	}
	s.RxPackets++
	p := &pkt
	if s.runHooks(HookPrerouting, p, ifc.Name, "") == VerdictDrop {
		return
	}
	if s.IsLocal(p.Dst) {
		if s.runHooks(HookInput, p, ifc.Name, "") == VerdictDrop {
			return
		}
		s.deliverLocal(p, ifc.Name)
		return
	}
	if !s.Forwarding {
		s.RxDropped++
		return
	}
	// Forwarding path.
	if p.TTL <= 1 {
		s.TTLExpired++
		s.sendICMPTimeExceeded(p, ifc)
		return
	}
	p.TTL--
	if s.runHooks(HookForward, p, ifc.Name, "") == VerdictDrop {
		return
	}
	if err := s.route(p, ifc.Name, nil); err == nil {
		s.Forwarded++
	}
}

func (s *Stack) deliverLocal(pkt *Packet, in string) {
	if h, ok := s.handlers[pkt.Proto]; ok {
		h(pkt, in)
		return
	}
	if pkt.Proto == ProtoICMP {
		s.handleICMP(pkt, in)
		return
	}
	s.RxDropped++
}
