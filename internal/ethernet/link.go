package ethernet

import (
	"math"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// Port is one end of a cable: a wired NIC. It implements NIC for hosts and is
// also the attachment unit for Switch and Hub.
type Port struct {
	kernel *sim.Kernel
	mac    MAC
	peer   *Port // other end of the cable
	// busyUntil serialises transmissions in this direction.
	busyUntil sim.Time
	// wire holds the frames in flight to the peer in send order, the next
	// to arrive at wire[head]; arriveFn, bound once, delivers it. Arrivals
	// come in send order: busyUntil serialises the sends, propDelay and the
	// peer are fixed, and equal arrival times fire in scheduling order. The
	// queue resets when it drains and compacts before it would grow, so it
	// holds at most twice the frames ever in flight at once.
	wire     []inFlight
	head     int
	arriveFn func()

	recv        Receiver
	promiscuous bool
	faults      *FaultProfile

	// Counters.
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64
	// Fault counters (only move while a FaultProfile is installed).
	FaultDrops, FaultCorrupted, FaultDuplicated uint64
}

// inFlight is one frame on the cable and the buffer its payload views.
type inFlight struct {
	f  Frame
	pb *pkt.Buf
}

// FaultProfile injects wire-level faults into a port's transmissions: a bad
// crimp (drops), a marginal PHY (single-byte corruption the IP checksum must
// catch), or a flapping bridge loop (duplicate delivery). All decisions draw
// from the given RNG, so faulty runs stay a pure function of the seed.
// internal/faults installs and removes profiles on schedule.
type FaultProfile struct {
	DropP    float64
	CorruptP float64
	DupP     float64
	RNG      *sim.RNG
}

// SetFaults installs (or, with nil, removes) the port's fault profile.
func (p *Port) SetFaults(fp *FaultProfile) { p.faults = fp }

// Peer returns the other end of the cable (nil if unplugged). Fault
// installers use it to cover both directions of a link.
func (p *Port) Peer() *Port { return p.peer }

// Every cable's rate in each direction (100 Mb/s Fast Ethernet) and its
// propagation delay.
const (
	bitsPerSec = 100e6
	propDelay  = sim.Microsecond
)

// NewCable creates two connected ports (a point-to-point full-duplex cable).
func NewCable(k *sim.Kernel, macA, macB MAC) (*Port, *Port) {
	a := &Port{kernel: k, mac: macA}
	b := &Port{kernel: k, mac: macB}
	a.peer, b.peer = b, a
	a.arriveFn, b.arriveFn = a.arrive, b.arrive
	return a, b
}

// HWAddr implements NIC.
func (p *Port) HWAddr() MAC { return p.mac }

// MTU implements NIC.
func (p *Port) MTU() int { return DefaultMTU }

// SetReceiver implements NIC.
func (p *Port) SetReceiver(r Receiver) { p.recv = r }

// SetPromiscuous makes the port deliver all frames regardless of destination,
// like a sniffer on a tap. Used by experiment E8.
func (p *Port) SetPromiscuous(on bool) { p.promiscuous = on }

// SendBuf implements NIC: zero-copy transmit of an owned packet buffer. The
// port takes ownership of pb and releases it once the frame has been
// delivered (or dropped).
func (p *Port) SendBuf(dst MAC, t EtherType, pb *pkt.Buf) {
	p.xmit(Frame{Dst: dst, Src: p.mac, Type: t, Payload: pb.Bytes()}, pb)
}

// Transmit puts an already-built frame on the wire. Exposed so bridges and
// switches can forward frames with their original source address. The
// payload is cloned into a pooled buffer: the caller's view may alias a
// buffer that is released (and recycled) long before the frame's delivery
// event fires.
func (p *Port) Transmit(f Frame) {
	if p.peer == nil {
		return // unplugged
	}
	pb := p.kernel.BufPool().GetCopy(f.Payload)
	f.Payload = pb.Bytes()
	p.xmit(f, pb)
}

// xmit applies the MTU gate and fault profile, then transmits. It owns pb
// (f.Payload views it) and releases it on every drop path; fault corruption
// mutates the buffer in place.
//
//simvet:owner transfer releases pb on every drop path, else forwards it to transmit
func (p *Port) xmit(f Frame, pb *pkt.Buf) {
	if p.peer == nil {
		pb.Release()
		return // unplugged
	}
	if len(f.Payload) > DefaultMTU {
		pb.Release()
		return
	}
	if fp := p.faults; fp != nil && fp.RNG != nil {
		if fp.RNG.Bool(fp.DropP) {
			p.FaultDrops++
			pb.Release()
			return
		}
		if len(f.Payload) > 0 && fp.RNG.Bool(fp.CorruptP) {
			f.Payload[fp.RNG.Intn(len(f.Payload))] ^= 0xff
			p.FaultCorrupted++
		}
		if fp.RNG.Bool(fp.DupP) {
			p.FaultDuplicated++
			// Both duplicates share the buffer, as they share a payload slice
			// before the refactor.
			p.transmit(f, pb.Retain())
		}
	}
	p.transmit(f, pb)
}

// transmit is the fault-free wire path: serialise on the cable, deliver to
// the peer after airtime plus propagation.
//
//simvet:owner transfer pb joins the in-flight queue, which arrive hands to the peer's deliver
func (p *Port) transmit(f Frame, pb *pkt.Buf) {
	txTime := sim.Time(math.Round(float64(f.WireLen()*8) / bitsPerSec * float64(sim.Second)))
	start := p.kernel.Now()
	if p.busyUntil > start {
		start = p.busyUntil
	}
	end := start + txTime
	p.busyUntil = end
	p.TxFrames++
	p.TxBytes += uint64(f.WireLen())
	if len(p.wire) == cap(p.wire) && p.head > 0 {
		n := copy(p.wire, p.wire[p.head:])
		clear(p.wire[n:])
		p.wire, p.head = p.wire[:n], 0
	}
	p.wire = append(p.wire, inFlight{f, pb})
	p.kernel.At(end+propDelay, p.arriveFn)
}

// arrive pops the oldest frame in flight and delivers it to the peer. The
// slot is cleared, and a drained queue reset, before the delivery runs, so
// a send the receiver makes in turn queues behind nothing stale.
func (p *Port) arrive() {
	w := p.wire[p.head]
	p.wire[p.head] = inFlight{}
	if p.head++; p.head == len(p.wire) {
		p.wire, p.head = p.wire[:0], 0
	}
	p.peer.deliver(w.f, w.pb)
}

// deliver hands the frame to the receiver callback and retires the buffer.
//
//simvet:owner transfer releases pb once the receive callback (which may not keep views) returns
func (p *Port) deliver(f Frame, pb *pkt.Buf) {
	p.RxFrames++
	p.RxBytes += uint64(f.WireLen())
	if p.recv != nil && (p.promiscuous || f.Dst == p.mac || f.Dst.IsMulticast()) {
		p.kernel.MixDigest("eth/rx", f.Payload)
		// The payload is a transient view: it is valid only for the duration
		// of this callback. Receivers that keep bytes must copy.
		p.recv(f)
	}
	pb.Release()
}

var _ NIC = (*Port)(nil)
