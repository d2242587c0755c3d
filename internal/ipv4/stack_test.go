package ipv4

import (
	"testing"
	"testing/quick"

	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/sim"
)

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{
		TOS: 0x10, ID: 42, DF: true, TTL: 64, Proto: ProtoTCP,
		Src: inet.MustParseAddr("10.0.0.1"), Dst: inet.MustParseAddr("10.0.0.2"),
		Payload: []byte("segment"),
	}
	g, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if g.TOS != p.TOS || g.ID != p.ID || g.DF != p.DF || g.TTL != p.TTL ||
		g.Proto != p.Proto || g.Src != p.Src || g.Dst != p.Dst || string(g.Payload) != "segment" {
		t.Fatalf("got %+v", g)
	}
}

func TestQuickPacketRoundTrip(t *testing.T) {
	f := func(tos uint8, id uint16, ttl uint8, proto uint8, src, dst [4]byte, payload []byte) bool {
		p := Packet{TOS: tos, ID: id, TTL: ttl, Proto: proto,
			Src: inet.Addr(src), Dst: inet.Addr(dst), Payload: payload}
		g, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		if g.TOS != tos || g.ID != id || g.TTL != ttl || g.Proto != proto ||
			g.Src != p.Src || g.Dst != p.Dst || len(g.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if g.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	p := Packet{TTL: 64, Proto: ProtoUDP, Src: inet.MustParseAddr("1.2.3.4"), Dst: inet.MustParseAddr("5.6.7.8")}
	raw := p.Marshal()
	raw[8] ^= 0xff // corrupt TTL
	if _, err := Unmarshal(raw); err != ErrBadChecksum {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
	if _, err := Unmarshal(raw[:10]); err != ErrShort {
		t.Fatal("short accepted")
	}
	raw2 := p.Marshal()
	raw2[0] = 0x65 // version 6
	if _, err := Unmarshal(raw2); err != ErrBadVersion {
		t.Fatal("bad version accepted")
	}
}

func TestICMPMessageRoundTrip(t *testing.T) {
	m := ICMPMessage{Type: ICMPEchoRequest, ID: 7, Seq: 3, Data: []byte("ping data")}
	g, ok := UnmarshalICMP(m.Marshal())
	if !ok || g.Type != m.Type || g.ID != 7 || g.Seq != 3 || string(g.Data) != "ping data" {
		t.Fatalf("g=%+v ok=%v", g, ok)
	}
	bad := m.Marshal()
	bad[8] ^= 1
	if _, ok := UnmarshalICMP(bad); ok {
		t.Fatal("corrupted ICMP accepted")
	}
}

// lanHost is a stack attached to a switch.
type lanHost struct {
	stack *Stack
	port  *ethernet.Port
}

// lan builds n hosts 10.0.0.1..n on one switch.
func lan(t *testing.T, k *sim.Kernel, n int) []lanHost {
	t.Helper()
	var alloc ethernet.MACAllocator
	sw := ethernet.NewSwitch(k, &alloc)
	hosts := make([]lanHost, n)
	prefix := inet.MustParsePrefix("10.0.0.0/24")
	for i := range hosts {
		port := sw.Attach(alloc.Next())
		st := NewStack(k, "h")
		addr := inet.Addr{10, 0, 0, byte(i + 1)}
		st.AddIface("eth0", port, addr, prefix)
		hosts[i] = lanHost{stack: st, port: port}
	}
	return hosts
}

func TestPingOnLAN(t *testing.T) {
	k := sim.NewKernel(1)
	hosts := lan(t, k, 2)
	var reply struct {
		from inet.Addr
		seq  uint16
	}
	hosts[0].stack.SetEchoHandler(func(from inet.Addr, id, seq uint16, data []byte) {
		reply.from, reply.seq = from, seq
	})
	if err := hosts[0].stack.Ping(inet.MustParseAddr("10.0.0.2"), 1, 7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if reply.from != inet.MustParseAddr("10.0.0.2") || reply.seq != 7 {
		t.Fatalf("reply %+v", reply)
	}
}

func TestPingSelf(t *testing.T) {
	k := sim.NewKernel(1)
	hosts := lan(t, k, 1)
	got := false
	hosts[0].stack.SetEchoHandler(func(from inet.Addr, id, seq uint16, data []byte) { got = true })
	if err := hosts[0].stack.Ping(inet.MustParseAddr("10.0.0.1"), 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !got {
		t.Fatal("no reply from self")
	}
}

func TestNoRouteError(t *testing.T) {
	k := sim.NewKernel(1)
	hosts := lan(t, k, 1)
	if err := hosts[0].stack.SendBuf(inet.Addr{}, inet.MustParseAddr("192.168.9.9"), ProtoUDP, k.BufPool().Get()); err == nil {
		t.Fatal("send off-subnet without route succeeded")
	}
}

// routedPair builds A —lanA— R —lanB— B with R forwarding.
func routedPair(t *testing.T, k *sim.Kernel) (a, r, b *Stack) {
	t.Helper()
	var alloc ethernet.MACAllocator
	swA := ethernet.NewSwitch(k, &alloc)
	swB := ethernet.NewSwitch(k, &alloc)

	a = NewStack(k, "A")
	a.AddIface("eth0", swA.Attach(alloc.Next()), inet.MustParseAddr("10.0.1.2"), inet.MustParsePrefix("10.0.1.0/24"))
	a.AddDefaultRoute(inet.MustParseAddr("10.0.1.1"), "eth0")

	b = NewStack(k, "B")
	b.AddIface("eth0", swB.Attach(alloc.Next()), inet.MustParseAddr("10.0.2.2"), inet.MustParsePrefix("10.0.2.0/24"))
	b.AddDefaultRoute(inet.MustParseAddr("10.0.2.1"), "eth0")

	r = NewStack(k, "R")
	r.Forwarding = true
	r.AddIface("eth0", swA.Attach(alloc.Next()), inet.MustParseAddr("10.0.1.1"), inet.MustParsePrefix("10.0.1.0/24"))
	r.AddIface("eth1", swB.Attach(alloc.Next()), inet.MustParseAddr("10.0.2.1"), inet.MustParsePrefix("10.0.2.0/24"))
	return a, r, b
}

func TestForwardingAcrossRouter(t *testing.T) {
	k := sim.NewKernel(1)
	a, r, _ := routedPair(t, k)
	replied := false
	a.SetEchoHandler(func(from inet.Addr, id, seq uint16, data []byte) {
		if from == inet.MustParseAddr("10.0.2.2") {
			replied = true
		}
	})
	if err := a.Ping(inet.MustParseAddr("10.0.2.2"), 1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !replied {
		t.Fatal("no echo reply across router")
	}
	if r.Forwarded < 2 {
		t.Fatalf("router forwarded %d packets, want >=2", r.Forwarded)
	}
}

func TestForwardingDisabledDrops(t *testing.T) {
	k := sim.NewKernel(1)
	a, r, _ := routedPair(t, k)
	r.Forwarding = false
	replied := false
	a.SetEchoHandler(func(inet.Addr, uint16, uint16, []byte) { replied = true })
	_ = a.Ping(inet.MustParseAddr("10.0.2.2"), 1, 1, nil)
	k.Run()
	if replied {
		t.Fatal("router forwarded with Forwarding=false")
	}
	if r.RxDropped == 0 {
		t.Fatal("no drops recorded")
	}
}

func TestTTLExpiry(t *testing.T) {
	k := sim.NewKernel(1)
	a, r, _ := routedPair(t, k)
	_ = r
	// Build a packet with TTL 1: the router must not forward it.
	m := ICMPMessage{Type: ICMPEchoRequest, ID: 1, Seq: 1}
	replied := false
	a.SetEchoHandler(func(inet.Addr, uint16, uint16, []byte) { replied = true })
	// Send manually with TTL 1 by crafting through the raw path.
	pkt := &Packet{ID: 1, TTL: 1, Proto: ProtoICMP,
		Src: inet.MustParseAddr("10.0.1.2"), Dst: inet.MustParseAddr("10.0.2.2"),
		Payload: m.Marshal()}
	if err := a.route(pkt, "", nil); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if replied {
		t.Fatal("TTL-1 packet crossed the router")
	}
	if r.TTLExpired != 1 {
		t.Fatalf("TTLExpired = %d", r.TTLExpired)
	}
}

func TestLongestPrefixWins(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewStack(k, "t")
	s.AddRoute(Route{Prefix: inet.MustParsePrefix("0.0.0.0/0"), Iface: "default"})
	s.AddRoute(Route{Prefix: inet.MustParsePrefix("10.0.0.0/8"), Iface: "eight"})
	s.AddRoute(Route{Prefix: inet.MustParsePrefix("10.1.0.0/16"), Iface: "sixteen"})
	s.AddRoute(Route{Prefix: inet.MustParsePrefix("10.1.2.3/32"), Iface: "host"})
	cases := map[string]string{
		"10.1.2.3":  "host",
		"10.1.9.9":  "sixteen",
		"10.9.9.9":  "eight",
		"192.0.2.1": "default",
	}
	for dst, want := range cases {
		r, ok := s.LookupRoute(inet.MustParseAddr(dst))
		if !ok || r.Iface != want {
			t.Errorf("LookupRoute(%s) = %q, want %q", dst, r.Iface, want)
		}
	}
}

func TestMetricBreaksTies(t *testing.T) {
	k := sim.NewKernel(1)
	s := NewStack(k, "t")
	s.AddRoute(Route{Prefix: inet.MustParsePrefix("10.0.0.0/8"), Iface: "worse", Metric: 10})
	s.AddRoute(Route{Prefix: inet.MustParsePrefix("10.0.0.0/8"), Iface: "better", Metric: 1})
	r, _ := s.LookupRoute(inet.MustParseAddr("10.1.1.1"))
	if r.Iface != "better" {
		t.Fatalf("picked %q", r.Iface)
	}
}

// dropHook drops everything at one point.
type dropHook struct {
	point HookPoint
	hits  int
}

func (h *dropHook) Filter(point HookPoint, pkt *Packet, in, out string) Verdict {
	if point == h.point {
		h.hits++
		return VerdictDrop
	}
	return VerdictAccept
}

func TestHooksDropAtEachPoint(t *testing.T) {
	for _, point := range []HookPoint{HookPrerouting, HookInput} {
		k := sim.NewKernel(1)
		hosts := lan(t, k, 2)
		h := &dropHook{point: point}
		hosts[1].stack.AddHook(h)
		replied := false
		hosts[0].stack.SetEchoHandler(func(inet.Addr, uint16, uint16, []byte) { replied = true })
		_ = hosts[0].stack.Ping(inet.MustParseAddr("10.0.0.2"), 1, 1, nil)
		k.Run()
		if replied {
			t.Errorf("%v: ping survived drop hook", point)
		}
		if h.hits == 0 {
			t.Errorf("%v: hook never hit", point)
		}
	}
}

func TestOutputHookDrops(t *testing.T) {
	k := sim.NewKernel(1)
	hosts := lan(t, k, 2)
	h := &dropHook{point: HookOutput}
	hosts[0].stack.AddHook(h)
	if err := hosts[0].stack.Ping(inet.MustParseAddr("10.0.0.2"), 1, 1, nil); err == nil {
		t.Fatal("OUTPUT-dropped send reported success")
	}
}

func TestForwardHookSeesTransit(t *testing.T) {
	k := sim.NewKernel(1)
	a, r, _ := routedPair(t, k)
	h := &dropHook{point: HookForward}
	r.AddHook(h)
	replied := false
	a.SetEchoHandler(func(inet.Addr, uint16, uint16, []byte) { replied = true })
	_ = a.Ping(inet.MustParseAddr("10.0.2.2"), 1, 1, nil)
	k.Run()
	if replied || h.hits == 0 {
		t.Fatalf("forward hook: replied=%v hits=%d", replied, h.hits)
	}
}

// rewriteHook performs a DNAT-style dst rewrite at PREROUTING.
type rewriteHook struct{ from, to inet.Addr }

func (h *rewriteHook) Filter(point HookPoint, pkt *Packet, in, out string) Verdict {
	if point == HookPrerouting && pkt.Dst == h.from {
		pkt.Dst = h.to
	}
	return VerdictAccept
}

func TestPreroutingRewriteRedirects(t *testing.T) {
	k := sim.NewKernel(1)
	a, r, b := routedPair(t, k)
	_ = b
	// Router rewrites pings for 10.0.2.99 to B's real address.
	r.AddHook(&rewriteHook{from: inet.MustParseAddr("10.0.2.99"), to: inet.MustParseAddr("10.0.2.2")})
	replied := false
	a.SetEchoHandler(func(from inet.Addr, id, seq uint16, data []byte) { replied = true })
	_ = a.Ping(inet.MustParseAddr("10.0.2.99"), 1, 1, nil)
	k.Run()
	if !replied {
		t.Fatal("rewritten destination did not reply")
	}
}

func TestBroadcastPing(t *testing.T) {
	k := sim.NewKernel(1)
	hosts := lan(t, k, 3)
	replies := map[inet.Addr]bool{}
	hosts[0].stack.SetEchoHandler(func(from inet.Addr, id, seq uint16, data []byte) {
		replies[from] = true
	})
	_ = hosts[0].stack.Ping(inet.MustParseAddr("10.0.0.255"), 1, 1, nil)
	k.Run()
	if len(replies) != 2 {
		t.Fatalf("broadcast ping got %d replies, want 2 (%v)", len(replies), replies)
	}
}

func TestSrcAddrFor(t *testing.T) {
	k := sim.NewKernel(1)
	hosts := lan(t, k, 1)
	src, err := hosts[0].stack.SrcAddrFor(inet.MustParseAddr("10.0.0.200"))
	if err != nil || src != inet.MustParseAddr("10.0.0.1") {
		t.Fatalf("src=%v err=%v", src, err)
	}
}

func TestIsLocal(t *testing.T) {
	k := sim.NewKernel(1)
	hosts := lan(t, k, 1)
	s := hosts[0].stack
	if !s.IsLocal(inet.MustParseAddr("10.0.0.1")) {
		t.Error("own address not local")
	}
	if !s.IsLocal(inet.MustParseAddr("10.0.0.255")) {
		t.Error("subnet broadcast not local")
	}
	if !s.IsLocal(inet.Broadcast) {
		t.Error("limited broadcast not local")
	}
	if s.IsLocal(inet.MustParseAddr("10.0.0.2")) {
		t.Error("foreign address local")
	}
}

func TestHookPointString(t *testing.T) {
	names := map[HookPoint]string{
		HookPrerouting: "PREROUTING", HookInput: "INPUT", HookForward: "FORWARD",
		HookOutput: "OUTPUT", HookPostrouting: "POSTROUTING",
	}
	for h, want := range names {
		if h.String() != want {
			t.Errorf("%d = %q", h, h.String())
		}
	}
}

// Wire parsers must never panic on arbitrary bytes.
func TestQuickParsersNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Unmarshal(b)
		_, _ = UnmarshalICMP(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
