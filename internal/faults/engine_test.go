package faults

import (
	"testing"

	"repro/internal/dot11"
	"repro/internal/ethernet"
	"repro/internal/ipv4"
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sim"
)

func mustInstall(t *testing.T, e *Engine, schedule string) {
	t.Helper()
	sched, err := Parse(schedule)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Install(sched); err != nil {
		t.Fatal(err)
	}
}

func TestEngineBurstWindow(t *testing.T) {
	k := sim.NewKernel(1)
	m := phy.NewMedium(k, phy.Config{})
	e := New(k, Targets{Medium: m})
	mustInstall(t, e, "burst@1s+2s(pgb=1,pbg=0,loss=1)")

	a := m.AddRadio(phy.RadioConfig{Name: "a", Pos: phy.Position{X: 0}})
	b := m.AddRadio(phy.RadioConfig{Name: "b", Pos: phy.Position{X: 5}})
	delivered := 0
	b.SetReceiver(func(data []byte, info phy.RxInfo) { delivered++ })

	// One frame before, several inside, one after the window.
	k.At(500*sim.Millisecond, func() { a.SendBuf(pkt.Wrap(make([]byte, 100)), phy.Rate11Mbps) })
	for i := 0; i < 5; i++ {
		at := sim.Time(1200+100*i) * sim.Millisecond
		k.At(at, func() { a.SendBuf(pkt.Wrap(make([]byte, 100)), phy.Rate11Mbps) })
	}
	k.At(3500*sim.Millisecond, func() { a.SendBuf(pkt.Wrap(make([]byte, 100)), phy.Rate11Mbps) })
	k.Run()

	// pgb=1, loss=1: every in-window frame dies; both out-of-window frames
	// live (5 m apart, SNR is comfortable).
	if delivered != 2 {
		t.Errorf("delivered %d frames, want 2 (burst window should eat 5)", delivered)
	}
	if m.BurstDrops != 5 {
		t.Errorf("BurstDrops = %d, want 5", m.BurstDrops)
	}
	if e.Applied != 1 || e.Reverted != 1 {
		t.Errorf("Applied/Reverted = %d/%d, want 1/1", e.Applied, e.Reverted)
	}
	if !e.Quiescent() {
		t.Error("engine not quiescent after schedule end")
	}
}

func TestEngineOverlappingWindowsCoalesce(t *testing.T) {
	k := sim.NewKernel(1)
	m := phy.NewMedium(k, phy.Config{})
	e := New(k, Targets{Medium: m})
	// Second window opens inside the first; the fault must stay applied
	// until the later close, with exactly one apply/revert pair.
	mustInstall(t, e, "burst@1s+4s;burst@2s+6s")

	var midway, after bool
	k.At(4500*sim.Millisecond, func() { midway = e.Quiescent() })
	k.At(9*sim.Second, func() { after = e.Quiescent() })
	k.Run()

	if e.Applied != 1 || e.Reverted != 1 {
		t.Errorf("Applied/Reverted = %d/%d, want 1/1 for overlapping windows", e.Applied, e.Reverted)
	}
	if midway {
		t.Error("engine quiescent at 4.5s while the second window is still open")
	}
	if !after {
		t.Error("engine not quiescent after both windows closed")
	}
}

func TestEngineAPCrashRestart(t *testing.T) {
	k := sim.NewKernel(1)
	m := phy.NewMedium(k, phy.Config{})
	radio := m.AddRadio(phy.RadioConfig{Name: "ap", Channel: 1})
	ap := dot11.NewAP(k, radio, dot11.APConfig{SSID: "CORP", BSSID: ethernet.MAC{2, 0, 0, 0, 0, 1}, Channel: 1})
	e := New(k, Targets{Medium: m, AP: ap})
	mustInstall(t, e, "apcrash@2s+3s")

	var atCrash, atRestart uint64
	var downMid, downAfter bool
	k.At(2500*sim.Millisecond, func() { atCrash = ap.Beacons; downMid = ap.Down() })
	k.At(4900*sim.Millisecond, func() { atRestart = ap.Beacons })
	k.At(8*sim.Second, func() { downAfter = ap.Down(); k.Stop() })
	k.Run()

	if !downMid {
		t.Error("AP not down inside the crash window")
	}
	if downAfter {
		t.Error("AP still down after the crash window")
	}
	if atRestart != atCrash {
		t.Errorf("AP beaconed while crashed: %d -> %d", atCrash, atRestart)
	}
	if ap.Beacons <= atRestart {
		t.Error("AP did not resume beaconing after restart")
	}
	if ap.Crashes != 1 {
		t.Errorf("Crashes = %d, want 1", ap.Crashes)
	}
}

func TestEngineWireCorruptionAndDup(t *testing.T) {
	k := sim.NewKernel(1)
	pa, pb := ethernet.NewCable(k, ethernet.MAC{2, 0, 0, 0, 0, 0xa}, ethernet.MAC{2, 0, 0, 0, 0, 0xb}, ethernet.PortConfig{})
	e := New(k, Targets{UplinkPorts: []*ethernet.Port{pa}})
	mustInstall(t, e, "corrupt@1s+2s(p=1);dup@4s+2s(p=1)")

	var rx [][]byte
	// Delivered payloads are transient views of pooled buffers, valid only
	// during the callback — copy before retaining (see DESIGN.md §9).
	pb.SetReceiver(func(f ethernet.Frame) { rx = append(rx, append([]byte(nil), f.Payload...)) })
	payload := []byte{1, 2, 3, 4}
	send := func() { pa.SendBuf(pb.HWAddr(), ethernet.TypeIPv4, k.BufPool().GetCopy(payload)) }
	k.At(500*sim.Millisecond, send)  // clean
	k.At(1500*sim.Millisecond, send) // corrupted
	k.At(4500*sim.Millisecond, send) // duplicated
	k.At(7*sim.Second, send)         // clean again
	k.Run()

	if len(rx) != 5 {
		t.Fatalf("received %d frames, want 5 (one duplicated)", len(rx))
	}
	if string(rx[0]) != string(payload) || string(rx[4]) != string(payload) {
		t.Error("out-of-window frames were not delivered intact")
	}
	if string(rx[1]) == string(payload) {
		t.Error("in-window frame was not corrupted")
	}
	if string(rx[2]) != string(payload) || string(rx[3]) != string(payload) {
		t.Error("duplicated frames arrived corrupted")
	}
	if pa.FaultCorrupted != 1 || pa.FaultDuplicated != 1 {
		t.Errorf("FaultCorrupted/FaultDuplicated = %d/%d, want 1/1", pa.FaultCorrupted, pa.FaultDuplicated)
	}
	// The original frame must not be mutated in place.
	if string(payload) != "\x01\x02\x03\x04" {
		t.Error("corruption mutated the sender's payload slice")
	}
}

func TestEnginePartition(t *testing.T) {
	k := sim.NewKernel(1)
	victim := ipv4.NewStack(k, "victim")
	web := ipv4.NewStack(k, "web")
	e := New(k, Targets{Hosts: map[string]*ipv4.Stack{"victim": victim, "web": web}})
	mustInstall(t, e, "partition@1s+2s;partition@5s+1s(host=web)")

	type snap struct{ victim, web bool }
	var during, second, after snap
	k.At(2*sim.Second, func() { during = snap{victim.Partitioned(), web.Partitioned()} })
	k.At(5500*sim.Millisecond, func() { second = snap{victim.Partitioned(), web.Partitioned()} })
	k.At(7*sim.Second, func() { after = snap{victim.Partitioned(), web.Partitioned()} })
	k.Run()

	if during != (snap{true, false}) {
		t.Errorf("during first window: %+v, want victim only", during)
	}
	if second != (snap{false, true}) {
		t.Errorf("during second window: %+v, want web only", second)
	}
	if after != (snap{false, false}) {
		t.Errorf("after schedule: %+v, want none", after)
	}
}

func TestEngineInstallValidation(t *testing.T) {
	k := sim.NewKernel(1)
	e := New(k, Targets{}) // nothing wired up
	for _, schedule := range []string{
		"burst@1s", "apcrash@1s", "quiet@1s", "linkflap@1s",
		"deauth@1s", "jam@1s", "corrupt@1s", "dup@1s",
		"partition@1s", "partition@1s(host=nope)",
	} {
		sched, err := Parse(schedule)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Install(sched); err == nil {
			t.Errorf("Install(%q) with empty targets unexpectedly succeeded", schedule)
		}
	}
	// Double install is rejected.
	m := phy.NewMedium(k, phy.Config{})
	e2 := New(k, Targets{Medium: m})
	mustInstall(t, e2, "burst@1s")
	if err := e2.Install(Schedule{{Kind: KindBurst, At: sim.Second, Duration: sim.Second, Count: 1}}); err == nil {
		t.Error("second Install unexpectedly succeeded")
	}
}

func TestEngineDeterministicDigest(t *testing.T) {
	run := func(seed uint64) uint64 {
		k := sim.NewKernel(seed)
		m := phy.NewMedium(k, phy.Config{})
		a := m.AddRadio(phy.RadioConfig{Name: "a", Pos: phy.Position{X: 0}})
		b := m.AddRadio(phy.RadioConfig{Name: "b", Pos: phy.Position{X: 20}})
		b.SetReceiver(func(data []byte, info phy.RxInfo) {})
		e := New(k, Targets{Medium: m})
		mustInstall(t, e, "burst@100ms+3s(pgb=0.3,pbg=0.3,loss=0.7)")
		for i := 0; i < 40; i++ {
			at := sim.Time(i*100) * sim.Millisecond
			k.At(at, func() { a.SendBuf(pkt.Wrap(make([]byte, 200)), phy.Rate11Mbps) })
		}
		k.Run()
		return k.Digest()
	}
	for _, seed := range []uint64{1, 7, 42} {
		if d1, d2 := run(seed), run(seed); d1 != d2 {
			t.Errorf("seed %d: digest diverged under faults: %016x != %016x", seed, d1, d2)
		}
	}
}
