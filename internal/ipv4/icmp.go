package ipv4

import (
	"encoding/binary"

	"repro/internal/inet"
)

// ICMP types used by the simulation.
const (
	ICMPEchoReply    uint8 = 0
	ICMPEchoRequest  uint8 = 8
	ICMPTimeExceeded uint8 = 11
)

// ICMPMessage is a minimal ICMP datagram.
type ICMPMessage struct {
	Type uint8
	Code uint8
	ID   uint16
	Seq  uint16
	Data []byte
}

// Marshal serialises with checksum.
func (m *ICMPMessage) Marshal() []byte {
	b := make([]byte, 8+len(m.Data))
	b[0] = m.Type
	b[1] = m.Code
	binary.BigEndian.PutUint16(b[4:6], m.ID)
	binary.BigEndian.PutUint16(b[6:8], m.Seq)
	copy(b[8:], m.Data)
	binary.BigEndian.PutUint16(b[2:4], inet.Checksum(b))
	return b
}

// UnmarshalICMP parses an ICMP payload, verifying the checksum.
func UnmarshalICMP(b []byte) (ICMPMessage, bool) {
	if len(b) < 8 || inet.Checksum(b) != 0 {
		return ICMPMessage{}, false
	}
	return ICMPMessage{
		Type: b[0], Code: b[1],
		ID:   binary.BigEndian.Uint16(b[4:6]),
		Seq:  binary.BigEndian.Uint16(b[6:8]),
		Data: b[8:],
	}, true
}

// EchoCallback receives ping replies.
type EchoCallback func(from inet.Addr, id, seq uint16, data []byte)

// handleICMP is the stack's built-in ICMP responder.
func (s *Stack) handleICMP(pkt *Packet, in string) {
	m, ok := UnmarshalICMP(pkt.Payload)
	if !ok {
		s.RxDropped++
		return
	}
	switch m.Type {
	case ICMPEchoRequest:
		reply := ICMPMessage{Type: ICMPEchoReply, ID: m.ID, Seq: m.Seq, Data: m.Data}
		// Reply from the address that was pinged — unless that was a
		// broadcast address, in which case use our unicast address on
		// the route back.
		src := pkt.Dst
		ownUnicast := false
		for _, ifc := range s.ifaces {
			if ifc.Addr == src {
				ownUnicast = true
				break
			}
		}
		if !ownUnicast {
			var err error
			src, err = s.SrcAddrFor(pkt.Src)
			if err != nil {
				return
			}
		}
		_ = s.sendICMP(src, pkt.Src, reply)
	case ICMPEchoReply:
		if s.onEchoReply != nil {
			s.onEchoReply(pkt.Src, m.ID, m.Seq, m.Data)
		}
	}
}

// Ping sends an echo request; replies arrive at the callback registered via
// SetEchoHandler.
func (s *Stack) Ping(dst inet.Addr, id, seq uint16, data []byte) error {
	m := ICMPMessage{Type: ICMPEchoRequest, ID: id, Seq: seq, Data: data}
	return s.sendICMP(inet.Addr{}, dst, m)
}

// SetEchoHandler registers the callback for echo replies.
func (s *Stack) SetEchoHandler(cb EchoCallback) { s.onEchoReply = cb }

// sendICMPTimeExceeded reports a TTL expiry back to the source.
func (s *Stack) sendICMPTimeExceeded(orig *Packet, in *Iface) {
	// Quote the original header + 8 bytes, per RFC 792.
	quote := orig.Marshal()
	if len(quote) > HeaderLen+8 {
		quote = quote[:HeaderLen+8]
	}
	m := ICMPMessage{Type: ICMPTimeExceeded, Data: quote}
	_ = s.sendICMP(in.Addr, orig.Src, m)
}

// sendICMP originates m in a pooled copy of its wire form.
func (s *Stack) sendICMP(src, dst inet.Addr, m ICMPMessage) error {
	return s.SendBuf(src, dst, ProtoICMP, s.kernel.BufPool().GetCopy(m.Marshal()))
}
