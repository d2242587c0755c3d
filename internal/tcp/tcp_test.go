package tcp

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/ipv4"
	"repro/internal/sim"
)

// pair is two hosts with TCP stacks on one switch, with an optional
// packet-mangling hook between them.
type pair struct {
	k    *sim.Kernel
	a, b *Stack
}

func newPair(t *testing.T) *pair {
	t.Helper()
	k := sim.NewKernel(1)
	var alloc ethernet.MACAllocator
	sw := ethernet.NewSwitch(k, &alloc)
	prefix := inet.MustParsePrefix("10.0.0.0/24")

	ipA := ipv4.NewStack(k, "A")
	ipA.AddIface("eth0", sw.Attach(alloc.Next()), inet.MustParseAddr("10.0.0.1"), prefix)
	ipB := ipv4.NewStack(k, "B")
	ipB.AddIface("eth0", sw.Attach(alloc.Next()), inet.MustParseAddr("10.0.0.2"), prefix)
	return &pair{k: k, a: NewStack(ipA), b: NewStack(ipB)}
}

var srvAddr = inet.MustParseHostPort("10.0.0.2:80")

// lossHook drops a deterministic subset of TCP packets.
type lossHook struct {
	n    int
	drop func(n int) bool
}

func (h *lossHook) Filter(point ipv4.HookPoint, pkt *ipv4.Packet, in, out string) ipv4.Verdict {
	if point != ipv4.HookOutput || pkt.Proto != ipv4.ProtoTCP {
		return ipv4.VerdictAccept
	}
	h.n++
	if h.drop != nil && h.drop(h.n) {
		return ipv4.VerdictDrop
	}
	return ipv4.VerdictAccept
}

func TestHandshakeAndEcho(t *testing.T) {
	p := newPair(t)
	l, err := p.b.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	l.OnAccept = func(c *Conn) {
		c.OnData = func(b []byte) {
			if err := c.Write(bytes.ToUpper(b)); err != nil {
				t.Errorf("server write: %v", err)
			}
		}
	}
	c, err := p.a.Dial(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	connected := false
	c.OnConnect = func() {
		connected = true
		if err := c.Write([]byte("hello tcp")); err != nil {
			t.Errorf("client write: %v", err)
		}
	}
	c.OnData = func(b []byte) { got = append(got, b...) }
	p.k.RunUntil(5 * sim.Second)
	if !connected {
		t.Fatal("never connected")
	}
	if string(got) != "HELLO TCP" {
		t.Fatalf("got %q", got)
	}
	if c.State() != StateEstablished {
		t.Fatalf("state %v", c.State())
	}
}

func TestLargeTransfer(t *testing.T) {
	p := newPair(t)
	l, _ := p.b.Listen(80)
	var rx []byte
	l.OnAccept = func(c *Conn) {
		c.OnData = func(b []byte) { rx = append(rx, b...) }
	}
	c, _ := p.a.Dial(srvAddr)
	payload := make([]byte, 200_000)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	c.OnConnect = func() { _ = c.Write(payload) }
	p.k.RunUntil(30 * sim.Second)
	if !bytes.Equal(rx, payload) {
		t.Fatalf("received %d bytes, want %d (content match %v)", len(rx), len(payload), bytes.Equal(rx, payload))
	}
}

func TestGracefulClose(t *testing.T) {
	p := newPair(t)
	l, _ := p.b.Listen(80)
	var srvConn *Conn
	srvEOF, srvClosed := false, false
	l.OnAccept = func(c *Conn) {
		srvConn = c
		c.OnEOF = func() {
			srvEOF = true
			c.Close() // close our side in response
		}
		c.OnClose = func(err error) {
			if err != nil {
				t.Errorf("server close err: %v", err)
			}
			srvClosed = true
		}
	}
	c, _ := p.a.Dial(srvAddr)
	cliClosed := false
	c.OnConnect = func() {
		_ = c.Write([]byte("bye"))
		c.Close()
	}
	c.OnClose = func(err error) {
		if err != nil {
			t.Errorf("client close err: %v", err)
		}
		cliClosed = true
	}
	p.k.RunUntil(20 * sim.Second)
	if !srvEOF || !srvClosed || !cliClosed {
		t.Fatalf("srvEOF=%v srvClosed=%v cliClosed=%v", srvEOF, srvClosed, cliClosed)
	}
	_ = srvConn
	if p.a.Conns() != 0 || p.b.Conns() != 0 {
		t.Fatalf("leaked conns: a=%d b=%d", p.a.Conns(), p.b.Conns())
	}
}

func TestConnectionRefused(t *testing.T) {
	p := newPair(t)
	c, _ := p.a.Dial(inet.MustParseHostPort("10.0.0.2:9999"))
	var gotErr error
	c.OnClose = func(err error) { gotErr = err }
	p.k.RunUntil(5 * sim.Second)
	if gotErr != ErrConnRefused {
		t.Fatalf("err = %v, want ErrConnRefused", gotErr)
	}
}

func TestDialTimeoutWhenPeerSilent(t *testing.T) {
	p := newPair(t)
	// Drop everything B would receive: use a hook on B's input.
	p.b.ip.AddHook(&lossHook{drop: func(int) bool { return true }})
	// Actually drop on A's output so SYNs never leave.
	c, _ := p.a.Dial(srvAddr)
	var gotErr error
	c.OnClose = func(err error) { gotErr = err }
	p.k.RunUntil(3 * sim.Minute)
	if gotErr != ErrTimeout && gotErr != ErrConnRefused {
		t.Fatalf("err = %v, want timeout/refused", gotErr)
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	p := newPair(t)
	// Drop every 7th TCP packet A sends.
	h := &lossHook{drop: func(n int) bool { return n%7 == 0 }}
	p.a.ip.AddHook(h)
	l, _ := p.b.Listen(80)
	var rx []byte
	l.OnAccept = func(c *Conn) {
		c.OnData = func(b []byte) { rx = append(rx, b...) }
	}
	c, _ := p.a.Dial(srvAddr)
	payload := make([]byte, 100_000)
	for i := range payload {
		payload[i] = byte(i)
	}
	c.OnConnect = func() { _ = c.Write(payload) }
	p.k.RunUntil(2 * sim.Minute)
	if !bytes.Equal(rx, payload) {
		t.Fatalf("received %d/%d bytes intact=%v", len(rx), len(payload), bytes.Equal(rx, payload))
	}
	if c.Retransmits == 0 {
		t.Fatal("no retransmissions counted despite loss")
	}
}

func TestBidirectionalTransferUnderLoss(t *testing.T) {
	p := newPair(t)
	p.a.ip.AddHook(&lossHook{drop: func(n int) bool { return n%11 == 0 }})
	p.b.ip.AddHook(&lossHook{drop: func(n int) bool { return n%13 == 0 }})
	l, _ := p.b.Listen(80)
	var rxServer, rxClient []byte
	want := 50_000
	l.OnAccept = func(c *Conn) {
		c.OnData = func(b []byte) {
			rxServer = append(rxServer, b...)
			_ = c.Write(b) // echo
		}
	}
	c, _ := p.a.Dial(srvAddr)
	c.OnData = func(b []byte) { rxClient = append(rxClient, b...) }
	payload := make([]byte, want)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	c.OnConnect = func() { _ = c.Write(payload) }
	p.k.RunUntil(2 * sim.Minute)
	if !bytes.Equal(rxServer, payload) || !bytes.Equal(rxClient, payload) {
		t.Fatalf("server %d/%d, client %d/%d", len(rxServer), want, len(rxClient), want)
	}
}

func TestOutOfOrderDeliveryReassembles(t *testing.T) {
	// Corrupting order at the IP layer is hard on a switch, so simulate by
	// dropping one packet and letting retransmission fill the gap: later
	// segments arrive first and must be buffered.
	p := newPair(t)
	dropped := false
	p.a.ip.AddHook(&lossHook{drop: func(n int) bool {
		if n == 5 && !dropped {
			dropped = true
			return true
		}
		return false
	}})
	l, _ := p.b.Listen(80)
	var rx []byte
	l.OnAccept = func(c *Conn) {
		c.OnData = func(b []byte) { rx = append(rx, b...) }
	}
	c, _ := p.a.Dial(srvAddr)
	payload := make([]byte, 30_000)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	c.OnConnect = func() { _ = c.Write(payload) }
	p.k.RunUntil(sim.Minute)
	if !bytes.Equal(rx, payload) {
		t.Fatalf("reassembly failed: %d/%d", len(rx), len(payload))
	}
}

func TestFastRetransmit(t *testing.T) {
	p := newPair(t)
	dropped := false
	p.a.ip.AddHook(&lossHook{drop: func(n int) bool {
		// Drop one data segment mid-stream; subsequent segments generate
		// dup ACKs that trigger fast retransmit before the RTO.
		if !dropped && n == 6 {
			dropped = true
			return true
		}
		return false
	}})
	l, _ := p.b.Listen(80)
	var rx []byte
	l.OnAccept = func(c *Conn) {
		c.OnData = func(b []byte) { rx = append(rx, b...) }
	}
	c, _ := p.a.Dial(srvAddr)
	payload := make([]byte, 100_000)
	c.OnConnect = func() { _ = c.Write(payload) }
	p.k.RunUntil(sim.Minute)
	if len(rx) != len(payload) {
		t.Fatalf("incomplete: %d/%d", len(rx), len(payload))
	}
	if c.FastRetransmits == 0 {
		t.Fatal("loss recovered without fast retransmit (dup-ack path untested)")
	}
}

func TestAbortSendsRST(t *testing.T) {
	p := newPair(t)
	l, _ := p.b.Listen(80)
	var srvErr error
	accepted := false
	l.OnAccept = func(c *Conn) {
		accepted = true
		c.OnClose = func(err error) { srvErr = err }
	}
	c, _ := p.a.Dial(srvAddr)
	c.OnConnect = func() {
		_ = c.Write([]byte("then suddenly"))
		p.k.After(100*sim.Millisecond, c.Abort)
	}
	p.k.RunUntil(5 * sim.Second)
	if !accepted {
		t.Fatal("not accepted")
	}
	if srvErr != ErrReset {
		t.Fatalf("server err = %v, want ErrReset", srvErr)
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	p := newPair(t)
	_, _ = p.b.Listen(80)
	c, _ := p.a.Dial(srvAddr)
	c.OnConnect = func() {
		c.Close()
		if err := c.Write([]byte("late")); err == nil {
			t.Error("write after close succeeded")
		}
	}
	p.k.RunUntil(5 * sim.Second)
}

func TestPortsReleasedAfterClose(t *testing.T) {
	p := newPair(t)
	l, _ := p.b.Listen(80)
	l.OnAccept = func(c *Conn) {
		c.OnEOF = func() { c.Close() }
	}
	for i := 0; i < 5; i++ {
		c, err := p.a.Dial(srvAddr)
		if err != nil {
			t.Fatal(err)
		}
		c.OnConnect = func() { c.Close() }
		p.k.RunUntil(p.k.Now() + 10*sim.Second)
	}
	if p.a.Conns() != 0 {
		t.Fatalf("%d conns leaked", p.a.Conns())
	}
}

func TestListenPortConflict(t *testing.T) {
	p := newPair(t)
	if _, err := p.b.Listen(80); err != nil {
		t.Fatal(err)
	}
	if _, err := p.b.Listen(80); err == nil {
		t.Fatal("double listen succeeded")
	}
}

func TestCongestionWindowGrows(t *testing.T) {
	p := newPair(t)
	l, _ := p.b.Listen(80)
	l.OnAccept = func(c *Conn) { c.OnData = func(b []byte) {} }
	c, _ := p.a.Dial(srvAddr)
	c.OnConnect = func() { _ = c.Write(make([]byte, 500_000)) }
	p.k.RunUntil(sim.Minute)
	if c.cwnd <= initialCwnd {
		t.Fatalf("cwnd = %v never grew beyond initial %v", c.cwnd, initialCwnd)
	}
}

func TestRTTEstimation(t *testing.T) {
	p := newPair(t)
	l, _ := p.b.Listen(80)
	l.OnAccept = func(c *Conn) { c.OnData = func(b []byte) {} }
	c, _ := p.a.Dial(srvAddr)
	c.OnConnect = func() { _ = c.Write(make([]byte, 10_000)) }
	p.k.RunUntil(10 * sim.Second)
	if c.srtt == 0 {
		t.Fatal("no RTT samples taken")
	}
	if c.rto < minRTO {
		t.Fatalf("rto %v below floor", c.rto)
	}
}

func TestSegmentChecksumRejectsCorruption(t *testing.T) {
	src := inet.MustParseAddr("10.0.0.1")
	dst := inet.MustParseAddr("10.0.0.2")
	s := segment{srcPort: 1, dstPort: 2, seq: 100, flags: flagACK, payload: []byte("data")}
	raw := s.marshal(src, dst)
	if _, err := unmarshalSegment(src, dst, raw); err != nil {
		t.Fatalf("clean segment rejected: %v", err)
	}
	raw[HeaderLen] ^= 1
	if _, err := unmarshalSegment(src, dst, raw); err == nil {
		t.Fatal("corrupt payload accepted")
	}
	// Wrong pseudo-header (spoofed address) must also fail.
	if _, err := unmarshalSegment(inet.MustParseAddr("10.0.0.9"), dst, s.marshal(src, dst)); err == nil {
		t.Fatal("pseudo-header mismatch accepted")
	}
}

func TestSeqArithmetic(t *testing.T) {
	if !seqLT(0xffffff00, 0x10) {
		t.Error("wraparound compare")
	}
	if seqLT(0x10, 0xffffff00) {
		t.Error("reverse wraparound")
	}
	if !seqLEQ(5, 5) {
		t.Error("equality")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateClosed: "CLOSED", StateSynSent: "SYN_SENT", StateEstablished: "ESTABLISHED",
		StateTimeWait: "TIME_WAIT",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", s, s.String())
		}
	}
}

// The segment parser must never panic on arbitrary bytes (it faces anything
// IP delivers).
func TestQuickSegmentParserNoPanic(t *testing.T) {
	src := inet.MustParseAddr("10.0.0.1")
	dst := inet.MustParseAddr("10.0.0.2")
	f := func(b []byte) bool {
		_, _ = unmarshalSegment(src, dst, b)
		return true
	}
	if err := quickCheck(f); err != nil {
		t.Fatal(err)
	}
}

func quickCheck(f func([]byte) bool) error {
	return quick.Check(f, &quick.Config{MaxCount: 2000})
}
