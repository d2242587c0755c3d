package udp

import (
	"testing"

	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/ipv4"
	"repro/internal/sim"
)

func newPair(t *testing.T) (*sim.Kernel, *Stack, *Stack) {
	t.Helper()
	k := sim.NewKernel(1)
	var alloc ethernet.MACAllocator
	sw := ethernet.NewSwitch(k, &alloc)
	prefix := inet.MustParsePrefix("10.0.0.0/24")
	ipA := ipv4.NewStack(k, "A")
	ipA.AddIface("eth0", sw.Attach(alloc.Next()), inet.MustParseAddr("10.0.0.1"), prefix)
	ipB := ipv4.NewStack(k, "B")
	ipB.AddIface("eth0", sw.Attach(alloc.Next()), inet.MustParseAddr("10.0.0.2"), prefix)
	return k, NewStack(ipA), NewStack(ipB)
}

func TestSendReceive(t *testing.T) {
	k, a, b := newPair(t)
	sb, err := b.Bind(53)
	if err != nil {
		t.Fatal(err)
	}
	var gotSrc inet.HostPort
	var gotData []byte
	sb.SetReceiver(func(src inet.HostPort, payload []byte) {
		gotSrc, gotData = src, append([]byte{}, payload...)
	})
	sa, _ := a.Bind(0)
	if err := sa.SendTo(inet.MustParseHostPort("10.0.0.2:53"), []byte("query")); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if string(gotData) != "query" {
		t.Fatalf("got %q", gotData)
	}
	if gotSrc.Addr != inet.MustParseAddr("10.0.0.1") || gotSrc.Port != sa.Port() {
		t.Fatalf("src %v", gotSrc)
	}
}

func TestReplyPath(t *testing.T) {
	k, a, b := newPair(t)
	sb, _ := b.Bind(53)
	sb.SetReceiver(func(src inet.HostPort, payload []byte) {
		_ = sb.SendTo(src, append([]byte("re:"), payload...))
	})
	sa, _ := a.Bind(0)
	var got []byte
	sa.SetReceiver(func(src inet.HostPort, payload []byte) { got = append([]byte{}, payload...) })
	_ = sa.SendTo(inet.MustParseHostPort("10.0.0.2:53"), []byte("ping"))
	k.Run()
	if string(got) != "re:ping" {
		t.Fatalf("got %q", got)
	}
}

func TestUnboundPortDropped(t *testing.T) {
	k, a, b := newPair(t)
	sa, _ := a.Bind(0)
	_ = sa.SendTo(inet.MustParseHostPort("10.0.0.2:9"), []byte("x"))
	k.Run()
	if b.RxNoSocket != 1 {
		t.Fatalf("RxNoSocket = %d", b.RxNoSocket)
	}
}

func TestBindConflictAndClose(t *testing.T) {
	_, a, _ := newPair(t)
	s1, err := a.Bind(1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Bind(1000); err == nil {
		t.Fatal("double bind succeeded")
	}
	s1.Close()
	if _, err := a.Bind(1000); err != nil {
		t.Fatalf("rebind after close failed: %v", err)
	}
}

func TestEphemeralPortsUnique(t *testing.T) {
	_, a, _ := newPair(t)
	seen := map[inet.Port]bool{}
	for i := 0; i < 100; i++ {
		s, err := a.Bind(0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[s.Port()] {
			t.Fatalf("duplicate ephemeral port %d", s.Port())
		}
		seen[s.Port()] = true
	}
}

func TestChecksumRejectsCorruption(t *testing.T) {
	src := inet.MustParseAddr("10.0.0.1")
	dst := inet.MustParseAddr("10.0.0.2")
	d := Datagram{SrcPort: 1, DstPort: 2, Payload: []byte("data")}
	raw := d.marshal(src, dst)
	if _, err := unmarshal(src, dst, raw); err != nil {
		t.Fatalf("clean datagram rejected: %v", err)
	}
	raw[8] ^= 1
	if _, err := unmarshal(src, dst, raw); err == nil {
		t.Fatal("corrupt datagram accepted")
	}
	if _, err := unmarshal(src, dst, raw[:4]); err == nil {
		t.Fatal("short datagram accepted")
	}
}

func TestLargePayload(t *testing.T) {
	k, a, b := newPair(t)
	sb, _ := b.Bind(53)
	var got int
	sb.SetReceiver(func(src inet.HostPort, payload []byte) { got = len(payload) })
	sa, _ := a.Bind(0)
	payload := make([]byte, 1400)
	_ = sa.SendTo(inet.MustParseHostPort("10.0.0.2:53"), payload)
	k.Run()
	if got != 1400 {
		t.Fatalf("got %d bytes", got)
	}
}
