package ethernet

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestParseMAC(t *testing.T) {
	m := MustParseMAC("aa:bb:cc:dd:ee:ff")
	want := MAC{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff}
	if m != want {
		t.Fatalf("parsed %v", m)
	}
	if m.String() != "aa:bb:cc:dd:ee:ff" {
		t.Fatalf("String = %q", m.String())
	}
	if _, err := ParseMAC("AA:BB:CC:DD:EE:0F"); err != nil {
		t.Fatal("uppercase rejected")
	}
}

func TestParseMACInvalid(t *testing.T) {
	for _, s := range []string{"", "aa:bb:cc:dd:ee", "aa:bb:cc:dd:ee:ff:00", "zz:bb:cc:dd:ee:ff", "aabbccddeeff", "aa-bb-cc-dd-ee-ff"} {
		if _, err := ParseMAC(s); err == nil {
			t.Errorf("ParseMAC(%q) succeeded", s)
		}
	}
}

func TestMACPredicates(t *testing.T) {
	if !BroadcastMAC.IsBroadcast() || !BroadcastMAC.IsMulticast() {
		t.Error("broadcast flags")
	}
	if MustParseMAC("02:00:00:00:00:01").IsMulticast() {
		t.Error("unicast flagged multicast")
	}
	if !MustParseMAC("01:00:5e:00:00:01").IsMulticast() {
		t.Error("multicast not flagged")
	}
}

func TestMACAllocatorUnique(t *testing.T) {
	var a MACAllocator
	seen := make(map[MAC]bool)
	for i := 0; i < 1000; i++ {
		m := a.Next()
		if seen[m] {
			t.Fatalf("duplicate MAC %v", m)
		}
		if m.IsMulticast() {
			t.Fatalf("allocator produced multicast MAC %v", m)
		}
		seen[m] = true
	}
}

// TestMarshalExactCapacity pins the documented allocation contract: Marshal
// returns an exactly-sized slice with no spare capacity, so repeated appends
// by a caller cannot silently grow into (and alias) adjacent frames.
func TestMarshalExactCapacity(t *testing.T) {
	f := Frame{
		Dst: MustParseMAC("02:00:00:00:00:01"), Src: MustParseMAC("02:00:00:00:00:02"),
		Type: TypeIPv4, Payload: []byte("payload"),
	}
	b := f.Marshal()
	if cap(b) != len(b) {
		t.Fatalf("Frame.Marshal: cap %d != len %d (spare capacity)", cap(b), len(b))
	}
}

func TestFrameMarshalRoundTrip(t *testing.T) {
	f := Frame{
		Dst:     MustParseMAC("aa:bb:cc:dd:ee:ff"),
		Src:     MustParseMAC("02:00:00:00:00:01"),
		Type:    TypeIPv4,
		Payload: []byte("hello"),
	}
	b := f.Marshal()
	if len(b) != f.WireLen() {
		t.Fatalf("marshal len %d, WireLen %d", len(b), f.WireLen())
	}
	g, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if g.Dst != f.Dst || g.Src != f.Src || g.Type != f.Type || string(g.Payload) != "hello" {
		t.Fatalf("round trip mismatch: %+v", g)
	}
}

func TestUnmarshalShortFrame(t *testing.T) {
	if _, err := Unmarshal(make([]byte, 13)); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(dst, src [6]byte, typ uint16, payload []byte) bool {
		fr := Frame{Dst: MAC(dst), Src: MAC(src), Type: EtherType(typ), Payload: payload}
		g, err := Unmarshal(fr.Marshal())
		if err != nil {
			return false
		}
		if g.Dst != fr.Dst || g.Src != fr.Src || g.Type != fr.Type || len(g.Payload) != len(payload) {
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

func TestEtherTypeString(t *testing.T) {
	if TypeIPv4.String() != "IPv4" || TypeARP.String() != "ARP" {
		t.Error("well-known names")
	}
	if EtherType(0x1234).String() != "0x1234" {
		t.Errorf("unknown = %q", EtherType(0x1234).String())
	}
}

// send transmits a pooled copy of payload from p, as a caller holding only a
// byte slice does.
func send(p *Port, dst MAC, t EtherType, payload []byte) {
	p.SendBuf(dst, t, p.kernel.BufPool().GetCopy(payload))
}

func testPair(t *testing.T) (*sim.Kernel, *Port, *Port) {
	t.Helper()
	k := sim.NewKernel(1)
	a, b := NewCable(k, MustParseMAC("02:00:00:00:00:01"), MustParseMAC("02:00:00:00:00:02"), PortConfig{})
	return k, a, b
}

func TestCableDelivers(t *testing.T) {
	k, a, b := testPair(t)
	var got []byte
	b.SetReceiver(func(f Frame) { got = append([]byte{}, f.Payload...) })
	send(a, b.HWAddr(), TypeIPv4, []byte("ping"))
	k.Run()
	if string(got) != "ping" {
		t.Fatalf("got %q", got)
	}
	if a.TxFrames != 1 || b.RxFrames != 1 {
		t.Fatalf("counters tx=%d rx=%d", a.TxFrames, b.RxFrames)
	}
}

func TestCableFiltersForeignUnicast(t *testing.T) {
	k, a, b := testPair(t)
	delivered := false
	b.SetReceiver(func(f Frame) { delivered = true })
	send(a, MustParseMAC("02:00:00:00:00:99"), TypeIPv4, []byte("x"))
	k.Run()
	if delivered {
		t.Fatal("foreign unicast delivered without promiscuous mode")
	}
}

func TestCablePromiscuousSeesAll(t *testing.T) {
	k, a, b := testPair(t)
	delivered := false
	b.SetPromiscuous(true)
	b.SetReceiver(func(f Frame) { delivered = true })
	send(a, MustParseMAC("02:00:00:00:00:99"), TypeIPv4, []byte("x"))
	k.Run()
	if !delivered {
		t.Fatal("promiscuous port missed frame")
	}
}

func TestCableBroadcastDelivered(t *testing.T) {
	k, a, b := testPair(t)
	delivered := false
	b.SetReceiver(func(f Frame) { delivered = true })
	send(a, BroadcastMAC, TypeARP, []byte("x"))
	k.Run()
	if !delivered {
		t.Fatal("broadcast not delivered")
	}
}

func TestCableSerialisationDelay(t *testing.T) {
	k := sim.NewKernel(1)
	// 8 Mb/s: a 1000-byte payload (1014B frame) takes 1014 µs + 1 µs prop.
	a, b := NewCable(k, MustParseMAC("02:00:00:00:00:01"), MustParseMAC("02:00:00:00:00:02"),
		PortConfig{BitsPerSec: 8e6})
	var at sim.Time
	b.SetReceiver(func(f Frame) { at = k.Now() })
	send(a, b.HWAddr(), TypeIPv4, make([]byte, 1000))
	k.Run()
	want := sim.Time(1014)*sim.Microsecond + sim.Microsecond
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestCableBackToBackFramesSerialise(t *testing.T) {
	k := sim.NewKernel(1)
	a, b := NewCable(k, MustParseMAC("02:00:00:00:00:01"), MustParseMAC("02:00:00:00:00:02"),
		PortConfig{BitsPerSec: 8e6})
	var times []sim.Time
	b.SetReceiver(func(f Frame) { times = append(times, k.Now()) })
	send(a, b.HWAddr(), TypeIPv4, make([]byte, 986)) // 1000B frame = 1ms at 8Mb/s
	send(a, b.HWAddr(), TypeIPv4, make([]byte, 986))
	k.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d frames", len(times))
	}
	if gap := times[1] - times[0]; gap != sim.Millisecond {
		t.Fatalf("inter-frame gap %v, want 1ms (serialisation)", gap)
	}
}

// TestCableSendAllocatesNothing pins the wired path's steady state: once the
// in-flight queue, the event freelist and the buffer pool are warm, a send
// and its delivery allocate nothing.
func TestCableSendAllocatesNothing(t *testing.T) {
	k, a, b := testPair(t)
	delivered := 0
	b.SetReceiver(func(f Frame) { delivered++ })
	payload := make([]byte, 100)
	step := func() {
		send(a, b.HWAddr(), TypeIPv4, payload)
		send(a, b.HWAddr(), TypeIPv4, payload)
		k.Run()
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("%v allocations per two sends and deliveries, want 0", allocs)
	}
	if delivered != 2*102 { // the warm-up, AllocsPerRun's own warm-up, 100 runs
		t.Fatalf("delivered %d frames, want %d", delivered, 2*102)
	}
}

// TestCableDupFaultDeliversInOrder duplicates every frame on the wire: both
// copies of each frame must arrive, in send order, and every buffer must go
// back to the pool once the copies have been delivered.
func TestCableDupFaultDeliversInOrder(t *testing.T) {
	k, a, b := testPair(t)
	a.SetFaults(&FaultProfile{DupP: 1, RNG: sim.NewRNG(3)})
	var got []byte
	b.SetReceiver(func(f Frame) { got = append(got, f.Payload[0]) })
	for i := byte(1); i <= 4; i++ {
		send(a, b.HWAddr(), TypeIPv4, []byte{i, 0, 0})
	}
	send(b, a.HWAddr(), TypeIPv4, []byte{9}) // the other direction has its own queue
	k.Run()
	if want := []byte{1, 1, 2, 2, 3, 3, 4, 4}; string(got) != string(want) {
		t.Fatalf("arrival order %v, want %v", got, want)
	}
	if a.FaultDuplicated != 4 || b.RxFrames != 8 || a.RxFrames != 1 {
		t.Fatalf("duplicated %d, b received %d, a received %d", a.FaultDuplicated, b.RxFrames, a.RxFrames)
	}
	if st := k.BufPool().Stats(); st.Gets != st.Puts {
		t.Fatalf("pool: %d buffers out, %d back", st.Gets, st.Puts)
	}
}

// TestCableQueueStaysBounded keeps the wire from ever draining: each
// arrival triggers the next send while two frames are still in flight.
// Frames must still arrive in send order, and the in-flight queue must
// compact rather than grow with every frame sent.
func TestCableQueueStaysBounded(t *testing.T) {
	k, a, b := testPair(t)
	const frames = 1000
	next, want := 3, 0
	b.SetReceiver(func(f Frame) {
		if got := int(f.Payload[0]) | int(f.Payload[1])<<8; got != want {
			t.Fatalf("frame %d arrived, want %d", got, want)
		}
		want++
		if next < frames {
			send(a, b.HWAddr(), TypeIPv4, []byte{byte(next), byte(next >> 8)})
			next++
		}
	})
	for i := 0; i < 3; i++ {
		send(a, b.HWAddr(), TypeIPv4, []byte{byte(i), byte(i >> 8)})
	}
	k.Run()
	if want != frames {
		t.Fatalf("%d frames arrived, want %d", want, frames)
	}
	if c := cap(a.wire); c > 16 {
		t.Fatalf("in-flight queue grew to capacity %d for at most 3 frames in flight", c)
	}
}

func TestCableDropsOversize(t *testing.T) {
	k, a, b := testPair(t)
	delivered := false
	b.SetReceiver(func(f Frame) { delivered = true })
	send(a, b.HWAddr(), TypeIPv4, make([]byte, DefaultMTU+1))
	k.Run()
	if delivered {
		t.Fatal("oversize frame delivered")
	}
}

func TestSwitchLearnsAndForwards(t *testing.T) {
	k := sim.NewKernel(1)
	var alloc MACAllocator
	sw := NewSwitch(k, &alloc, SwitchConfig{})
	macA, macB, macC := alloc.Next(), alloc.Next(), alloc.Next()
	pa := sw.Attach(macA)
	pb := sw.Attach(macB)
	pc := sw.Attach(macC)

	rx := map[string]int{}
	pa.SetReceiver(func(f Frame) { rx["a"]++ })
	pb.SetReceiver(func(f Frame) { rx["b"]++ })
	pc.SetReceiver(func(f Frame) { rx["c"]++ })

	// First frame to an unknown MAC floods; after B replies, traffic to B
	// goes only to B's port.
	send(pa, macB, TypeIPv4, []byte("1"))
	k.Run()
	if rx["b"] != 1 || rx["c"] != 0 {
		// unknown dst floods, but C filters foreign unicast at its NIC;
		// check the switch actually flooded by flipping C promiscuous.
		t.Fatalf("after flood: rx=%v", rx)
	}
	send(pb, macA, TypeIPv4, []byte("2"))
	k.Run()
	send(pa, macB, TypeIPv4, []byte("3"))
	k.Run()
	if rx["b"] != 2 {
		t.Fatalf("B did not receive learned unicast: rx=%v", rx)
	}
	if port, ok := sw.LookupPort(macB); !ok || port != 1 {
		t.Fatalf("LookupPort(B) = %d, %v", port, ok)
	}
	if sw.ForwardedFrames == 0 {
		t.Fatal("no learned forwards counted")
	}
}

func TestSwitchUnicastIsolation(t *testing.T) {
	// The paper's Section 1.1 claim: a sniffer on a switch port cannot see
	// other hosts' unicast traffic once the switch has learned addresses.
	k := sim.NewKernel(1)
	var alloc MACAllocator
	sw := NewSwitch(k, &alloc, SwitchConfig{})
	macA, macB, macSniffer := alloc.Next(), alloc.Next(), alloc.Next()
	pa := sw.Attach(macA)
	pb := sw.Attach(macB)
	sniffer := sw.Attach(macSniffer)
	sniffer.SetPromiscuous(true)

	sniffed := 0
	sniffer.SetReceiver(func(f Frame) {
		if f.Type == TypeIPv4 {
			sniffed++
		}
	})
	pb.SetReceiver(func(f Frame) {})

	// Prime the table in both directions.
	send(pa, macB, TypeIPv4, []byte("x"))
	send(pb, macA, TypeIPv4, []byte("x"))
	k.Run()
	sniffed = 0
	for i := 0; i < 100; i++ {
		send(pa, macB, TypeIPv4, []byte("secret"))
	}
	k.Run()
	if sniffed != 0 {
		t.Fatalf("sniffer saw %d/100 learned unicast frames", sniffed)
	}
}

func TestSwitchBroadcastFloods(t *testing.T) {
	k := sim.NewKernel(1)
	var alloc MACAllocator
	sw := NewSwitch(k, &alloc, SwitchConfig{})
	ports := make([]*Port, 4)
	rx := make([]int, 4)
	for i := range ports {
		i := i
		ports[i] = sw.Attach(alloc.Next())
		ports[i].SetReceiver(func(f Frame) { rx[i]++ })
	}
	send(ports[0], BroadcastMAC, TypeARP, []byte("who-has"))
	k.Run()
	if rx[0] != 0 || rx[1] != 1 || rx[2] != 1 || rx[3] != 1 {
		t.Fatalf("broadcast rx = %v", rx)
	}
}

func TestSwitchAging(t *testing.T) {
	k := sim.NewKernel(1)
	var alloc MACAllocator
	sw := NewSwitch(k, &alloc, SwitchConfig{Aging: sim.Second})
	macA, macB := alloc.Next(), alloc.Next()
	pa := sw.Attach(macA)
	sw.Attach(macB)
	send(pa, macB, TypeIPv4, []byte("x"))
	k.Run()
	if _, ok := sw.LookupPort(macA); !ok {
		t.Fatal("A not learned")
	}
	k.RunUntil(k.Now() + 2*sim.Second)
	if _, ok := sw.LookupPort(macA); ok {
		t.Fatal("A not aged out")
	}
}

func TestHubRepeatsToAll(t *testing.T) {
	k := sim.NewKernel(1)
	var alloc MACAllocator
	hub := NewHub(k, &alloc, PortConfig{})
	macA, macB := alloc.Next(), alloc.Next()
	pa := hub.Attach(macA)
	pb := hub.Attach(macB)
	sniffer := hub.Attach(alloc.Next())
	sniffer.SetPromiscuous(true)
	pb.SetReceiver(func(f Frame) {})
	sniffed := 0
	sniffer.SetReceiver(func(f Frame) { sniffed++ })
	send(pa, macB, TypeIPv4, []byte("secret"))
	k.Run()
	if sniffed != 1 {
		t.Fatalf("hub sniffer saw %d frames, want 1", sniffed)
	}
}
