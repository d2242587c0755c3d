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
	ports    []*Port // switch-side port of each cable
	table    map[MAC]tableEntry

	// FloodedFrames counts frames sent out all ports (unknown dst or
	// broadcast); ForwardedFrames counts learned unicast forwards.
	FloodedFrames   uint64
	ForwardedFrames uint64
}

type tableEntry struct {
	port     int
	lastSeen sim.Time
}

// switchAging is how long a learned MAC stays valid without traffic (a
// common switch default).
const switchAging = 5 * sim.Minute

// NewSwitch creates an empty switch.
func NewSwitch(k *sim.Kernel, alloc *MACAllocator) *Switch {
	return &Switch{kernel: k, macAlloc: alloc, table: make(map[MAC]tableEntry)}
}

// Attach adds a new cable to the switch and returns the host-side port.
func (s *Switch) Attach(hostMAC MAC) *Port {
	swPort, hostPort := NewCable(s.kernel, s.macAlloc.Next(), hostMAC)
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
		if e, ok := s.table[f.Dst]; ok && now-e.lastSeen <= switchAging {
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
	if !ok || s.kernel.Now()-e.lastSeen > switchAging {
		return 0, false
	}
	return e.port, true
}

// Hub is a dumb repeater: every frame goes out every other port. It is the
// wired worst case E8's note cites: E8 itself builds no hub, and the Hub
// tests show a port on one seeing every other port's traffic.
type Hub struct {
	kernel   *sim.Kernel
	macAlloc *MACAllocator
	ports    []*Port
}

// NewHub creates an empty hub.
func NewHub(k *sim.Kernel, alloc *MACAllocator) *Hub {
	return &Hub{kernel: k, macAlloc: alloc}
}

// Attach adds a new cable to the hub and returns the host-side port.
func (h *Hub) Attach(hostMAC MAC) *Port {
	hubPort, hostPort := NewCable(h.kernel, h.macAlloc.Next(), hostMAC)
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
