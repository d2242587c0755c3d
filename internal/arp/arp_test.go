package arp

import (
	"testing"
	"testing/quick"

	"repro/internal/ethernet"
	"repro/internal/inet"
	"repro/internal/sim"
)

var (
	ipA = inet.MustParseAddr("10.0.0.1")
	ipB = inet.MustParseAddr("10.0.0.2")
	ipC = inet.MustParseAddr("10.0.0.3")
)

func TestPacketRoundTrip(t *testing.T) {
	p := Packet{
		Op:       OpReply,
		SenderHW: ethernet.MustParseMAC("02:00:00:00:00:01"), SenderIP: ipA,
		TargetHW: ethernet.MustParseMAC("02:00:00:00:00:02"), TargetIP: ipB,
	}
	g, err := Unmarshal(p.Marshal())
	if err != nil || g != p {
		t.Fatalf("g=%+v err=%v", g, err)
	}
}

func TestQuickPacketRoundTrip(t *testing.T) {
	f := func(op uint16, shw, thw [6]byte, sip, tip [4]byte) bool {
		p := Packet{Op: op, SenderHW: ethernet.MAC(shw), SenderIP: inet.Addr(sip),
			TargetHW: ethernet.MAC(thw), TargetIP: inet.Addr(tip)}
		g, err := Unmarshal(p.Marshal())
		return err == nil && g == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 27)); err != ErrBadPacket {
		t.Error("short accepted")
	}
	bad := (&Packet{Op: OpRequest}).Marshal()
	bad[0] = 9 // htype
	if _, err := Unmarshal(bad); err != ErrBadPacket {
		t.Error("bad htype accepted")
	}
}

// twoHosts builds A—cable—B with ARP clients attached directly to the ports.
func twoHosts(t *testing.T) (*sim.Kernel, *Client, *Client) {
	t.Helper()
	k := sim.NewKernel(1)
	macA := ethernet.MustParseMAC("02:00:00:00:00:01")
	macB := ethernet.MustParseMAC("02:00:00:00:00:02")
	pa, pb := ethernet.NewCable(k, macA, macB)
	ca := NewClient(k, pa, ipA)
	cb := NewClient(k, pb, ipB)
	pa.SetReceiver(func(f ethernet.Frame) {
		if f.Type == ethernet.TypeARP {
			ca.HandleFrame(f.Payload)
		}
	})
	pb.SetReceiver(func(f ethernet.Frame) {
		if f.Type == ethernet.TypeARP {
			cb.HandleFrame(f.Payload)
		}
	})
	return k, ca, cb
}

func TestResolveSucceeds(t *testing.T) {
	k, ca, _ := twoHosts(t)
	var got ethernet.MAC
	var gotErr error
	ca.Resolve(ipB, func(m ethernet.MAC, err error) { got, gotErr = m, err })
	k.RunFor(5 * sim.Second)
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if got != ethernet.MustParseMAC("02:00:00:00:00:02") {
		t.Fatalf("resolved %v", got)
	}
	if _, ok := ca.Lookup(ipB); !ok {
		t.Fatal("not cached after resolve")
	}
}

func TestResolveCacheHitIsSynchronous(t *testing.T) {
	k, ca, _ := twoHosts(t)
	ca.Resolve(ipB, func(ethernet.MAC, error) {})
	k.RunFor(5 * sim.Second)
	called := false
	ca.Resolve(ipB, func(m ethernet.MAC, err error) { called = true })
	if !called {
		t.Fatal("cache hit was not synchronous")
	}
	if ca.RequestsSent != 1 {
		t.Fatalf("RequestsSent = %d, want 1", ca.RequestsSent)
	}
}

func TestResolveTimeout(t *testing.T) {
	k, ca, _ := twoHosts(t)
	var gotErr error
	ca.Resolve(ipC, func(m ethernet.MAC, err error) { gotErr = err }) // nobody has ipC
	k.Run()
	if gotErr != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", gotErr)
	}
	if ca.RequestsSent != 3 {
		t.Fatalf("RequestsSent = %d, want 3 retries", ca.RequestsSent)
	}
}

func TestResolveCoalescesCallbacks(t *testing.T) {
	k, ca, _ := twoHosts(t)
	calls := 0
	for i := 0; i < 5; i++ {
		ca.Resolve(ipB, func(ethernet.MAC, error) { calls++ })
	}
	k.Run()
	if calls != 5 {
		t.Fatalf("calls = %d", calls)
	}
	if ca.RequestsSent != 1 {
		t.Fatalf("RequestsSent = %d, want 1 (coalesced)", ca.RequestsSent)
	}
}

func TestLearnsFromRequests(t *testing.T) {
	k, ca, cb := twoHosts(t)
	// B resolving A teaches A about B as a side effect of the request.
	cb.Resolve(ipA, func(ethernet.MAC, error) {})
	k.RunFor(5 * sim.Second)
	if _, ok := ca.Lookup(ipB); !ok {
		t.Fatal("A did not learn B from B's request")
	}
}

func TestCacheAges(t *testing.T) {
	k, ca, _ := twoHosts(t)
	ca.Resolve(ipB, func(ethernet.MAC, error) {})
	k.Run()
	k.RunUntil(k.Now() + 2*sim.Minute)
	if _, ok := ca.Lookup(ipB); ok {
		t.Fatal("entry survived past TTL")
	}
}

func TestGratuitousAnnounceLearned(t *testing.T) {
	k, ca, cb := twoHosts(t)
	ca.Announce()
	k.RunFor(5 * sim.Second)
	if mac, ok := cb.Lookup(ipA); !ok || mac != ethernet.MustParseMAC("02:00:00:00:00:01") {
		t.Fatal("gratuitous ARP not learned")
	}
}

func TestARPPoisoning(t *testing.T) {
	// Unauthenticated replies overwrite the cache — the wired-MITM vector
	// the paper contrasts with the easier wireless one.
	k, ca, _ := twoHosts(t)
	ca.Resolve(ipB, func(ethernet.MAC, error) {})
	k.Run()
	evil := ethernet.MustParseMAC("02:00:00:00:00:66")
	forged := Packet{Op: OpReply, SenderHW: evil, SenderIP: ipB, TargetHW: ethernet.MustParseMAC("02:00:00:00:00:01"), TargetIP: ipA}
	ca.HandleFrame(forged.Marshal())
	if mac, _ := ca.Lookup(ipB); mac != evil {
		t.Fatal("cache not poisoned by forged reply (ARP would resist MITM, unlike reality)")
	}
}

func TestProxyForAnswersForeign(t *testing.T) {
	k, ca, cb := twoHosts(t)
	_ = ca
	// B proxies for ipC.
	cb.ProxyFor = func(ip inet.Addr) bool { return ip == ipC }
	var got ethernet.MAC
	ca.Resolve(ipC, func(m ethernet.MAC, err error) {
		if err == nil {
			got = m
		}
	})
	k.Run()
	if got != ethernet.MustParseMAC("02:00:00:00:00:02") {
		t.Fatalf("proxy reply MAC = %v", got)
	}
}

// routesRecorder captures AddHostRoute calls.
type routesRecorder struct{ routes map[inet.Addr]string }

func (r *routesRecorder) AddHostRoute(ip inet.Addr, iface string) {
	if r.routes == nil {
		r.routes = map[inet.Addr]string{}
	}
	r.routes[ip] = iface
}

func TestParproutedBridges(t *testing.T) {
	// Topology: victim —wlan0— [gateway] —eth1— server.
	// The gateway learns where each IP lives and proxy-answers across.
	k := sim.NewKernel(1)
	macV := ethernet.MustParseMAC("02:00:00:00:00:0a")
	macW0 := ethernet.MustParseMAC("02:00:00:00:00:0b")
	macE1 := ethernet.MustParseMAC("02:00:00:00:00:0c")
	macS := ethernet.MustParseMAC("02:00:00:00:00:0d")
	ipV := inet.MustParseAddr("10.0.0.3")
	ipS := inet.MustParseAddr("10.0.0.1")

	victimPort, wlan0 := ethernet.NewCable(k, macV, macW0)
	eth1, serverPort := ethernet.NewCable(k, macE1, macS)

	victim := NewClient(k, victimPort, ipV)
	victimPort.SetReceiver(func(f ethernet.Frame) {
		if f.Type == ethernet.TypeARP {
			victim.HandleFrame(f.Payload)
		}
	})
	server := NewClient(k, serverPort, ipS)
	serverPort.SetReceiver(func(f ethernet.Frame) {
		if f.Type == ethernet.TypeARP {
			server.HandleFrame(f.Payload)
		}
	})

	gwWlan := NewClient(k, wlan0, inet.MustParseAddr("10.0.0.254"))
	wlan0.SetReceiver(func(f ethernet.Frame) {
		if f.Type == ethernet.TypeARP {
			gwWlan.HandleFrame(f.Payload)
		}
	})
	gwEth := NewClient(k, eth1, inet.MustParseAddr("10.0.0.253"))
	eth1.SetReceiver(func(f ethernet.Frame) {
		if f.Type == ethernet.TypeARP {
			gwEth.HandleFrame(f.Payload)
		}
	})

	rec := &routesRecorder{}
	pp := NewParprouted(k, rec, map[string]*Client{"wlan0": gwWlan, "eth1": gwEth})

	// Victim resolves the server's IP. First request misses (daemon probes),
	// a retry gets the proxy reply with the gateway's wlan0 MAC.
	var got ethernet.MAC
	victim.Resolve(ipS, func(m ethernet.MAC, err error) {
		if err != nil {
			t.Errorf("victim resolve failed: %v", err)
			return
		}
		got = m
	})
	k.Run()
	if got != macW0 {
		t.Fatalf("victim resolved server to %v, want gateway wlan0 %v", got, macW0)
	}
	if rec.routes[ipS] != "eth1" {
		t.Fatalf("server route learned on %q, want eth1 (routes: %v)", rec.routes[ipS], rec.routes)
	}
	if rec.routes[ipV] != "wlan0" {
		t.Fatalf("victim route learned on %q, want wlan0", rec.routes[ipV])
	}
	if iface, ok := pp.Where(ipS); !ok || iface != "eth1" {
		t.Fatalf("Where(server) = %q, %v", iface, ok)
	}
}

func TestParproutedDoesNotProxySameSide(t *testing.T) {
	// Two hosts on the same side must keep talking directly: the daemon
	// must not answer for an address that lives on the asking interface.
	k := sim.NewKernel(1)
	var alloc ethernet.MACAllocator
	sw := ethernet.NewSwitch(k, &alloc)

	mk := func(ip inet.Addr) (*Client, *ethernet.Port) {
		port := sw.Attach(alloc.Next())
		c := NewClient(k, port, ip)
		port.SetReceiver(func(f ethernet.Frame) {
			if f.Type == ethernet.TypeARP {
				c.HandleFrame(f.Payload)
			}
		})
		return c, port
	}
	a, _ := mk(ipA)
	b, portB := mk(ipB)
	_ = b
	gw, _ := mk(inet.MustParseAddr("10.0.0.254"))
	rec := &routesRecorder{}
	// Bridge with a second, empty side.
	k2mac := ethernet.MustParseMAC("02:00:00:00:00:77")
	other, _ := ethernet.NewCable(k, k2mac, ethernet.MustParseMAC("02:00:00:00:00:78"))
	gwOther := NewClient(k, other, inet.MustParseAddr("10.0.1.254"))
	NewParprouted(k, rec, map[string]*Client{"lan": gw, "other": gwOther})

	var got ethernet.MAC
	a.Resolve(ipB, func(m ethernet.MAC, err error) {
		if err == nil {
			got = m
		}
	})
	k.Run()
	if got != portB.HWAddr() {
		t.Fatalf("A resolved B to %v, want B's own MAC %v", got, portB.HWAddr())
	}
}

// The ARP parser must never panic on arbitrary payloads.
func TestQuickUnmarshalNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Unmarshal(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
