package vpn

import (
	"repro/internal/arp"
	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/pkt"
)

// TunnelMTU is the tun device MTU: small enough that a full inner packet
// plus record and carrier overhead fits the outer 1500-byte MTU without IP
// fragmentation (which the simulation does not model).
const TunnelMTU = 1400

// InnerMSS is the TCP MSS hosts should use when their traffic rides the
// tunnel (TunnelMTU − 40 bytes of inner headers).
const InnerMSS = TunnelMTU - 40

// tunNIC is a virtual point-to-point interface. The IP stack attaches to it
// like any NIC; outbound IP packets go to the outbound callback (which
// encrypts them into the tunnel) and inbound decrypted packets are injected
// through deliver. ARP requests are answered locally with a synthetic peer
// MAC, since a tunnel has no real link layer.
type tunNIC struct {
	hw       ethernet.MAC
	recv     ethernet.Receiver
	outbound func(ipPacket []byte)
}

// peerMAC is the synthetic MAC every tun resolution returns.
var peerMAC = ethernet.MAC{0x02, 0xf0, 0x0d, 0x00, 0x00, 0x01}

func newTunNIC(hw ethernet.MAC, outbound func([]byte)) *tunNIC {
	return &tunNIC{hw: hw, outbound: outbound}
}

func (t *tunNIC) HWAddr() ethernet.MAC            { return t.hw }
func (t *tunNIC) MTU() int                        { return TunnelMTU }
func (t *tunNIC) SetReceiver(r ethernet.Receiver) { t.recv = r }

// SendBuf consumes the buffer synchronously and releases it: an ARP request
// is answered on the spot with a reply synthesised from it, and an IP packet
// is handed to outbound, which encrypts it into a sealed record.
func (t *tunNIC) SendBuf(dst ethernet.MAC, typ ethernet.EtherType, pb *pkt.Buf) {
	switch typ {
	case ethernet.TypeARP:
		// Answer any ARP request instantly so the stack can "resolve"
		// next hops over the tunnel.
		req, err := arp.Unmarshal(pb.Bytes())
		if err == nil && req.Op == arp.OpRequest && t.recv != nil {
			resp := arp.Packet{
				Op:       arp.OpReply,
				SenderHW: peerMAC, SenderIP: req.TargetIP,
				TargetHW: req.SenderHW, TargetIP: req.SenderIP,
			}
			t.recv(ethernet.Frame{Dst: t.hw, Src: peerMAC, Type: ethernet.TypeARP, Payload: resp.Marshal()})
		}
	case ethernet.TypeIPv4:
		if t.outbound != nil {
			t.outbound(clampMSS(pb.Bytes(), InnerMSS))
		}
	}
	pb.Release()
}

// deliver injects a decrypted inner IP packet into the host stack as if it
// arrived on the tun interface.
func (t *tunNIC) deliver(ipPacket []byte) {
	if t.recv != nil {
		ipPacket = clampMSS(ipPacket, InnerMSS)
		t.recv(ethernet.Frame{Dst: t.hw, Src: peerMAC, Type: ethernet.TypeIPv4, Payload: ipPacket})
	}
}

// clampMSS rewrites the MSS option of TCP SYN packets crossing the tunnel
// down to max — OpenVPN's --mssfix. Without it, an uninformed far endpoint
// (a web server with a 1460 MSS) would send inner segments too large to
// encapsulate, and with no IP fragmentation they would be lost.
func clampMSS(ipPacket []byte, max int) []byte {
	const ipHdr = 20
	if len(ipPacket) < ipHdr+20 || ipPacket[0]>>4 != 4 || ipPacket[9] != 6 {
		return ipPacket // not TCP/IPv4
	}
	ihl := int(ipPacket[0]&0x0f) * 4
	if len(ipPacket) < ihl+20 {
		return ipPacket
	}
	tcpSeg := ipPacket[ihl:]
	if tcpSeg[13]&0x02 == 0 { // not SYN
		return ipPacket
	}
	dataOff := int(tcpSeg[12]>>4) * 4
	if dataOff < 20 || dataOff > len(tcpSeg) {
		return ipPacket
	}
	opts := tcpSeg[20:dataOff]
	changed := false
	for i := 0; i < len(opts); {
		switch opts[i] {
		case 0:
			i = len(opts)
		case 1:
			i++
		default:
			if i+1 >= len(opts) || int(opts[i+1]) < 2 || i+int(opts[i+1]) > len(opts) {
				i = len(opts)
				break
			}
			if opts[i] == 2 && opts[i+1] == 4 {
				v := int(opts[i+2])<<8 | int(opts[i+3])
				if v > max {
					opts[i+2], opts[i+3] = byte(max>>8), byte(max)
					changed = true
				}
			}
			i += int(opts[i+1])
		}
	}
	if changed {
		fixInnerTCPChecksum(ipPacket, ihl)
	}
	return ipPacket
}

// fixInnerTCPChecksum recomputes a TCP checksum inside a raw IP packet.
func fixInnerTCPChecksum(ipPacket []byte, ihl int) {
	var src, dst inet.Addr
	copy(src[:], ipPacket[12:16])
	copy(dst[:], ipPacket[16:20])
	seg := ipPacket[ihl:]
	seg[16], seg[17] = 0, 0
	sum := inet.PseudoHeaderSum(src, dst, 6, uint16(len(seg)))
	sum = inet.SumBytes(sum, seg)
	cs := inet.FinishChecksum(sum)
	seg[16], seg[17] = byte(cs>>8), byte(cs)
}

var _ ethernet.NIC = (*tunNIC)(nil)

// frameStream reassembles length-prefixed messages from a TCP byte stream:
// len(2, big-endian) || type(1) || body.
type frameStream struct {
	buf []byte
}

// push appends stream data and returns any complete messages. A zero length
// prefix, which frame never writes (every message has a type byte), is
// consumed without yielding a message, so no message is ever empty.
func (f *frameStream) push(b []byte) [][]byte {
	f.buf = append(f.buf, b...)
	var msgs [][]byte
	for {
		if len(f.buf) < 2 {
			return msgs
		}
		n := int(f.buf[0])<<8 | int(f.buf[1])
		if n == 0 {
			f.buf = f.buf[2:]
			continue
		}
		if len(f.buf) < 2+n {
			return msgs
		}
		msg := append([]byte(nil), f.buf[2:2+n]...)
		f.buf = f.buf[2+n:]
		msgs = append(msgs, msg)
	}
}

// frame builds a length-prefixed message.
func frame(typ byte, body []byte) []byte {
	n := 1 + len(body)
	out := make([]byte, 2+n)
	out[0], out[1] = byte(n>>8), byte(n)
	out[2] = typ
	copy(out[3:], body)
	return out
}
