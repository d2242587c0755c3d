package dot11

import (
	"testing"

	"repro/internal/ethernet"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Every AP beacons each 102.4 ms, and every station and sensor in range
// parses each beacon, so the beacon cycle runs allocation-free once warm:
// the timers are bound once, the body is written into the pooled frame
// buffer, and a receiver reads it in place.

// TestBeaconSendAllocFree pins an AP's beacon cycle at zero allocations: the
// beacon tick, the body written into the frame buffer, the air delivery and
// an associated station's receive and beacon-loss check.
func TestBeaconSendAllocFree(t *testing.T) {
	w := newWorld(t, APConfig{}, STAConfig{})
	w.st.Connect()
	w.settle()
	if w.st.State() != StateAssociated {
		t.Fatalf("state = %v, want associated", w.st.State())
	}
	interval := sim.Time(beaconIntervalTU) * TU
	w.k.RunFor(10 * interval) // warm the wheel, freelists and buffer pool
	before := w.ap.Beacons
	const runs = 20
	if avg := testing.AllocsPerRun(runs, func() { w.k.RunFor(interval) }); avg != 0 {
		t.Fatalf("beacon interval allocates %.1f times, want 0", avg)
	}
	// AllocsPerRun adds one untimed warm-up call.
	if sent := w.ap.Beacons - before; sent != runs+1 {
		t.Fatalf("sent %d beacons in %d intervals", sent, runs+1)
	}
	if w.st.State() != StateAssociated {
		t.Fatalf("station lost its AP: state = %v", w.st.State())
	}
}

// TestBeaconReceiveAllocFree pins an associated station hearing its own AP's
// beacon at zero allocations: it parses the body in place and builds no SSID
// string, since it stores nothing but the time.
func TestBeaconReceiveAllocFree(t *testing.T) {
	w := newWorld(t, APConfig{}, STAConfig{})
	w.st.Connect()
	w.settle()
	if w.st.State() != StateAssociated {
		t.Fatalf("state = %v, want associated", w.st.State())
	}
	body := BeaconBody{BeaconInterval: 100, Capability: CapESS, SSID: "CORP", Channel: 1}
	raw := (&Frame{
		Type: TypeManagement, Subtype: SubtypeBeacon,
		Addr1: ethernet.BroadcastMAC, Addr2: macAP, Addr3: macAP,
		Body: body.Marshal(),
	}).Marshal()
	info := phy.RxInfo{RSSIDBm: -40}
	w.k.RunFor(sim.Second)
	w.st.lastBeacon = 0
	if avg := testing.AllocsPerRun(100, func() { w.st.onRadioFrame(raw, info) }); avg != 0 {
		t.Fatalf("receiving a beacon allocates %.1f times, want 0", avg)
	}
	if w.st.lastBeacon != w.k.Now() {
		t.Fatalf("lastBeacon = %v, want %v: the beacon was not heard", w.st.lastBeacon, w.k.Now())
	}
}
