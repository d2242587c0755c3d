package experiments

import (
	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/ipv4"
	"repro/internal/netsed"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/vpn"
)

// tamperHook flips a byte in every Nth forwarded VPN-carrier packet and
// repairs the transport checksum, modelling an on-path attacker who mangles
// tunnel traffic it cannot read (E3's detection row).
type tamperHook struct {
	every int
	count int
}

func (h *tamperHook) Filter(point ipv4.HookPoint, pkt *ipv4.Packet, in, out string) ipv4.Verdict {
	if point != ipv4.HookForward || len(pkt.Payload) < 120 {
		return ipv4.VerdictAccept
	}
	// Only touch tunnel carrier traffic (port 4789 on either side).
	sp := int(pkt.Payload[0])<<8 | int(pkt.Payload[1])
	dp := int(pkt.Payload[2])<<8 | int(pkt.Payload[3])
	if sp != int(vpn.DefaultPort) && dp != int(vpn.DefaultPort) {
		return ipv4.VerdictAccept
	}
	h.count++
	if h.count%h.every != 0 {
		return ipv4.VerdictAccept
	}
	// Flip a byte near the packet tail: inside the record's HMAC trailer,
	// so the stream framing survives and the VPN layer sees (and counts)
	// the forgery instead of the carrier desynchronising.
	pkt.Payload[len(pkt.Payload)-10] ^= 0xff
	fixTransportChecksum(pkt)
	return ipv4.VerdictAccept
}

// fixTransportChecksum recomputes the TCP/UDP checksum after tampering.
func fixTransportChecksum(pkt *ipv4.Packet) {
	var off int
	switch pkt.Proto {
	case ipv4.ProtoTCP:
		off = 16
	case ipv4.ProtoUDP:
		off = 6
	default:
		return
	}
	pkt.Payload[off], pkt.Payload[off+1] = 0, 0
	sum := inet.PseudoHeaderSum(pkt.Src, pkt.Dst, pkt.Proto, uint16(len(pkt.Payload)))
	sum = inet.SumBytes(sum, pkt.Payload)
	cs := inet.FinishChecksum(sum)
	pkt.Payload[off], pkt.Payload[off+1] = byte(cs>>8), byte(cs)
}

func vpnCarrier(udp bool) vpn.Carrier {
	if udp {
		return vpn.CarrierUDP
	}
	return vpn.CarrierTCP
}

func phyPos(x float64) phy.Position { return phy.Position{X: x, Y: 0} }

// proxyOnce runs one body through a wired client→netsed→server relay and
// returns what the client received. Used by E2b to control exactly how the
// pattern lands on TCP segment boundaries.
func proxyOnce(body []byte, rule string, streaming bool) []byte {
	k := sim.NewKernel(1)
	var alloc ethernet.MACAllocator
	sw := ethernet.NewSwitch(k, &alloc)
	prefix := inet.MustParsePrefix("10.0.0.0/24")

	mk := func(name string, addr string) *tcp.Stack {
		ip := ipv4.NewStack(k, name)
		ip.AddIface("eth0", sw.Attach(alloc.Next()), inet.MustParseAddr(addr), prefix)
		return tcp.NewStack(ip)
	}
	client := mk("client", "10.0.0.1")
	gw := mk("gw", "10.0.0.254")
	server := mk("server", "10.0.0.80")

	_, err := netsed.Start(gw, netsed.Config{
		ListenPort: 10101,
		Upstream:   inet.MustParseHostPort("10.0.0.80:80"),
		Rules:      []string{rule},
		Streaming:  streaming,
	})
	if err != nil {
		panic(err)
	}
	l, err := server.Listen(80)
	if err != nil {
		panic(err)
	}
	l.OnAccept = func(c *tcp.Conn) {
		c.OnData = func(b []byte) {
			_ = c.Write(body)
			c.Close()
		}
	}
	conn, err := client.Dial(inet.MustParseHostPort("10.0.0.254:10101"))
	if err != nil {
		panic(err)
	}
	var got []byte
	conn.OnConnect = func() { _ = conn.Write([]byte("GET")) }
	conn.OnData = func(b []byte) { got = append(got, b...) }
	k.RunUntil(30 * sim.Second)
	return got
}
