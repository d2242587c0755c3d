// Package ethernet models the wired side of the paper's topologies: Ethernet
// II framing, point-to-point cables with bandwidth and propagation delay, a
// learning switch, and a hub.
//
// The switch matters to the reproduction: Section 1.1 of the paper argues
// that wired eavesdropping is impractical precisely because switched networks
// deliver unicast traffic only to the owning port, while wireless is a
// broadcast medium. Experiment E8 measures that asymmetry with this switch
// against the phy package's radio medium.
package ethernet

import (
	"fmt"

	"repro/internal/pkt"
)

// MAC is a 48-bit IEEE 802 hardware address, used by both wired Ethernet and
// the 802.11 MAC layer (which shares the same address space).
type MAC [6]byte

// BroadcastMAC is ff:ff:ff:ff:ff:ff.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String formats the address in colon-hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// IsMulticast reports whether the group bit is set (includes broadcast).
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// MustParseMAC parses colon-hex notation, panicking on error.
func MustParseMAC(s string) MAC {
	m, err := ParseMAC(s)
	if err != nil {
		panic(err)
	}
	return m
}

// ParseMAC parses colon-hex notation ("aa:bb:cc:dd:ee:ff").
func ParseMAC(s string) (MAC, error) {
	var m MAC
	if len(s) != 17 {
		return m, fmt.Errorf("ethernet: bad MAC %q", s)
	}
	for i := 0; i < 6; i++ {
		hi, ok1 := unhex(s[i*3])
		lo, ok2 := unhex(s[i*3+1])
		if !ok1 || !ok2 {
			return m, fmt.Errorf("ethernet: bad MAC %q", s)
		}
		m[i] = hi<<4 | lo
		if i < 5 && s[i*3+2] != ':' {
			return m, fmt.Errorf("ethernet: bad MAC %q", s)
		}
	}
	return m, nil
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// MACAllocator hands out locally administered unicast MACs deterministically.
type MACAllocator struct{ next uint32 }

// Next returns a fresh MAC with the locally-administered bit set.
func (a *MACAllocator) Next() MAC {
	a.next++
	v := a.next
	return MAC{0x02, 0x00, 0x00, byte(v >> 16), byte(v >> 8), byte(v)}
}

// EtherType identifies the payload protocol of a frame.
type EtherType uint16

// EtherTypes used in this repository.
const (
	TypeIPv4 EtherType = 0x0800
	TypeARP  EtherType = 0x0806
)

// String names well-known EtherTypes.
func (t EtherType) String() string {
	switch t {
	case TypeIPv4:
		return "IPv4"
	case TypeARP:
		return "ARP"
	default:
		return fmt.Sprintf("0x%04x", uint16(t))
	}
}

// Frame is an Ethernet II frame. Payloads are referenced, not copied; senders
// must not mutate a payload after handing it to the link layer.
type Frame struct {
	Dst     MAC
	Src     MAC
	Type    EtherType
	Payload []byte
}

// HeaderLen is the Ethernet II header size in bytes.
const HeaderLen = 14

// WireLen reports the frame's size on the wire (header + payload, ignoring
// FCS and padding, which the simulation does not model).
func (f *Frame) WireLen() int { return HeaderLen + len(f.Payload) }

// Marshal serialises the frame into an exactly-sized slice (tests assert
// zero spare capacity).
func (f *Frame) Marshal() []byte {
	b := make([]byte, HeaderLen+len(f.Payload))
	copy(b[0:6], f.Dst[:])
	copy(b[6:12], f.Src[:])
	b[12] = byte(f.Type >> 8)
	b[13] = byte(f.Type)
	copy(b[14:], f.Payload)
	return b
}

// Unmarshal parses a serialised frame. The payload aliases b.
func Unmarshal(b []byte) (Frame, error) {
	if len(b) < HeaderLen {
		return Frame{}, fmt.Errorf("ethernet: short frame (%d bytes)", len(b))
	}
	var f Frame
	copy(f.Dst[:], b[0:6])
	copy(f.Src[:], b[6:12])
	f.Type = EtherType(uint16(b[12])<<8 | uint16(b[13]))
	f.Payload = b[14:]
	return f, nil
}

// Receiver consumes frames arriving at a port or NIC.
type Receiver func(f Frame)

// NIC is the link-layer service interface presented to the network layer by
// any L2 attachment — a wired port, a WiFi station, or an AP's distribution
// side. SendBuf queues a frame for transmission; delivery is asynchronous in
// virtual time.
type NIC interface {
	// HWAddr reports the interface's MAC address.
	HWAddr() MAC
	// MTU reports the maximum payload size.
	MTU() int
	// SendBuf transmits an owned packet buffer to dst with the given
	// EtherType, taking ownership of pb: the NIC (and the layers below it)
	// release it when the frame leaves the system, on every path. It is the
	// only transmit path — lower layers push their headers into pb's
	// headroom instead of re-marshalling. A caller holding only a byte
	// slice passes a copy (kernel.BufPool().GetCopy).
	SendBuf(dst MAC, t EtherType, pb *pkt.Buf)
	// SetReceiver installs the upper-layer frame handler. Frames addressed
	// to this NIC (or broadcast/multicast) are delivered; NICs are not
	// promiscuous unless documented otherwise.
	SetReceiver(r Receiver)
}

// DefaultMTU is the classic Ethernet payload MTU.
const DefaultMTU = 1500
