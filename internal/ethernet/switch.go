package ethernet

import (
	"repro/internal/sim"
)

// Switch is a learning Ethernet switch. It remembers which port each source
// MAC was last seen on and forwards unicast frames only to the owning port,
// flooding unknown destinations and broadcast/multicast.
//
// This is the device that makes wired eavesdropping "not practical" in the
// paper's Section 1.1: a sniffer on one switch port sees almost none of the
// traffic between other ports.
type Switch struct {
	kernel   *sim.Kernel
	macAlloc *MACAllocator
	cfg      PortConfig
	ports    []*Port // switch-side port of each cable
	table    map[MAC]tableEntry
	aging    sim.Time

	// FloodedFrames counts frames sent out all ports (unknown dst or
	// broadcast); ForwardedFrames counts learned unicast forwards.
	FloodedFrames   uint64
	ForwardedFrames uint64
}

type tableEntry struct {
	port     int
	lastSeen sim.Time
}

// SwitchConfig configures a Switch.
type SwitchConfig struct {
	Port PortConfig
	// Aging is how long a learned MAC stays valid without traffic.
	// Zero means 5 minutes (a common default).
	Aging sim.Time
}

// NewSwitch creates an empty switch.
func NewSwitch(k *sim.Kernel, alloc *MACAllocator, cfg SwitchConfig) *Switch {
	if cfg.Aging == 0 {
		cfg.Aging = 5 * sim.Minute
	}
	cfg.Port.fill()
	return &Switch{
		kernel:   k,
		macAlloc: alloc,
		cfg:      cfg.Port,
		table:    make(map[MAC]tableEntry),
		aging:    cfg.Aging,
	}
}

// Attach adds a new cable to the switch and returns the host-side port.
func (s *Switch) Attach(hostMAC MAC) *Port {
	swPort, hostPort := NewCable(s.kernel, s.macAlloc.Next(), hostMAC, s.cfg)
	idx := len(s.ports)
	s.ports = append(s.ports, swPort)
	swPort.SetPromiscuous(true) // switches see every frame on their ports
	swPort.SetReceiver(func(f Frame) { s.onFrame(idx, f) })
	return hostPort
}

func (s *Switch) onFrame(in int, f Frame) {
	now := s.kernel.Now()
	// Learn the source, unless it is multicast (invalid as a source).
	if !f.Src.IsMulticast() {
		s.table[f.Src] = tableEntry{port: in, lastSeen: now}
	}
	if !f.Dst.IsMulticast() {
		if e, ok := s.table[f.Dst]; ok && now-e.lastSeen <= s.aging {
			if e.port != in {
				s.ForwardedFrames++
				s.ports[e.port].Transmit(f)
			}
			return
		}
	}
	// Flood.
	s.FloodedFrames++
	for i, p := range s.ports {
		if i != in {
			p.Transmit(f)
		}
	}
}

// LookupPort reports which port a MAC was learned on, for tests and the
// wired-side rogue detector.
func (s *Switch) LookupPort(m MAC) (int, bool) {
	e, ok := s.table[m]
	if !ok || s.kernel.Now()-e.lastSeen > s.aging {
		return 0, false
	}
	return e.port, true
}

// Hub is a dumb repeater: every frame goes out every other port. Included as
// the wired worst case for the E8 eavesdropping comparison.
type Hub struct {
	kernel   *sim.Kernel
	macAlloc *MACAllocator
	cfg      PortConfig
	ports    []*Port
}

// NewHub creates an empty hub.
func NewHub(k *sim.Kernel, alloc *MACAllocator, cfg PortConfig) *Hub {
	cfg.fill()
	return &Hub{kernel: k, macAlloc: alloc, cfg: cfg}
}

// Attach adds a new cable to the hub and returns the host-side port.
func (h *Hub) Attach(hostMAC MAC) *Port {
	hubPort, hostPort := NewCable(h.kernel, h.macAlloc.Next(), hostMAC, h.cfg)
	idx := len(h.ports)
	h.ports = append(h.ports, hubPort)
	hubPort.SetPromiscuous(true)
	hubPort.SetReceiver(func(f Frame) {
		for i, p := range h.ports {
			if i != idx {
				p.Transmit(f)
			}
		}
	})
	return hostPort
}
