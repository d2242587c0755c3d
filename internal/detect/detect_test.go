package detect

import (
	"testing"

	"repro/internal/dot11"
	"repro/internal/ethernet"
	"repro/internal/phy"
	"repro/internal/sim"
)

var (
	apMAC    = ethernet.MustParseMAC("02:aa:bb:cc:dd:01")
	staMAC   = ethernet.MustParseMAC("02:00:00:00:03:01")
	otherMAC = ethernet.MustParseMAC("02:00:00:00:04:01")
)

func frame(src ethernet.MAC, seq uint16) dot11.Frame {
	return dot11.Frame{Type: dot11.TypeData, ToDS: true, Addr1: apMAC, Addr2: src, Addr3: apMAC, Seq: seq & 0x0fff}
}

func newDetector() (*sim.Kernel, *Detector) {
	k := sim.NewKernel(1)
	return k, New(k)
}

func TestHealthySequenceNoAlert(t *testing.T) {
	_, d := newDetector()
	for i := 0; i < 5000; i++ {
		d.Observe(frame(staMAC, uint16(i)), phy.RxInfo{})
	}
	if len(d.Alerts) != 0 {
		t.Fatalf("alerts on healthy traffic: %v", d.Alerts)
	}
}

func TestSequenceWrapIsNotAnomalous(t *testing.T) {
	_, d := newDetector()
	for i := 4000; i < 4300; i++ { // crosses the 4095->0 wrap
		d.Observe(frame(staMAC, uint16(i)), phy.RxInfo{})
	}
	if len(d.Alerts) != 0 {
		t.Fatalf("alerts on wraparound: %v", d.Alerts)
	}
}

func TestMissedFramesTolerated(t *testing.T) {
	// A sensor missing up to seqJumpThreshold frames must not alert.
	_, d := newDetector()
	seq := uint16(0)
	for i := 0; i < 500; i++ {
		d.Observe(frame(staMAC, seq), phy.RxInfo{})
		seq = (seq + 30) & 0x0fff // heavy but plausible loss
	}
	if len(d.Alerts) != 0 {
		t.Fatalf("alerts under frame loss: %v", d.Alerts)
	}
}

func TestInterleavedCountersDetected(t *testing.T) {
	// Two transmitters sharing one MAC (the cloned-BSSID rogue): their
	// independent counters interleave and betray themselves.
	_, d := newDetector()
	a, b := uint16(0), uint16(2000)
	for i := 0; i < 50; i++ {
		d.Observe(frame(apMAC, a), phy.RxInfo{})
		a++
		d.Observe(frame(apMAC, b), phy.RxInfo{})
		b++
	}
	alerts := d.AlertsOf(AlertSeqAnomaly)
	if len(alerts) != 1 {
		t.Fatalf("seq alerts = %v", d.Alerts)
	}
	if alerts[0].MAC != apMAC {
		t.Fatalf("alert MAC %v", alerts[0].MAC)
	}
}

func TestSingleResetNotAlerted(t *testing.T) {
	// One counter reset (device reboot) stays under the alert threshold.
	_, d := newDetector()
	for i := 0; i < 100; i++ {
		d.Observe(frame(staMAC, uint16(i+3000)), phy.RxInfo{})
	}
	for i := 0; i < 100; i++ { // reboot: counter restarts
		d.Observe(frame(staMAC, uint16(i)), phy.RxInfo{})
	}
	if len(d.Alerts) != 0 {
		t.Fatalf("alert on single reset: %v", d.Alerts)
	}
}

func TestPerMACIsolation(t *testing.T) {
	// Anomalies are tracked per MAC; two healthy stations never mix.
	_, d := newDetector()
	for i := 0; i < 1000; i++ {
		d.Observe(frame(staMAC, uint16(i)), phy.RxInfo{})
		d.Observe(frame(otherMAC, uint16(i+2048)), phy.RxInfo{})
	}
	if len(d.Alerts) != 0 {
		t.Fatalf("cross-MAC confusion: %v", d.Alerts)
	}
}

func beaconFrame(bssid ethernet.MAC, ssid string, ch byte, interval uint16, cap uint16) dot11.Frame {
	body := dot11.BeaconBody{SSID: ssid, Channel: ch, BeaconInterval: interval, Capability: cap}
	return dot11.Frame{
		Type: dot11.TypeManagement, Subtype: dot11.SubtypeBeacon,
		Addr1: ethernet.BroadcastMAC, Addr2: bssid, Addr3: bssid,
		Body: body.Marshal(),
	}
}

func TestBeaconFingerprintMismatch(t *testing.T) {
	// Real AP: CORP on channel 1 — then a clone appears on channel 6, or
	// under another SSID (compared in place against the stored one).
	for _, clone := range []dot11.Frame{
		beaconFrame(apMAC, "CORP", 6, 100, dot11.CapESS),
		beaconFrame(apMAC, "CORQ", 1, 100, dot11.CapESS),
	} {
		_, d := newDetector()
		d.Observe(beaconFrame(apMAC, "CORP", 1, 100, dot11.CapESS), phy.RxInfo{})
		d.Observe(beaconFrame(apMAC, "CORP", 1, 100, dot11.CapESS), phy.RxInfo{})
		d.Observe(clone, phy.RxInfo{})
		alerts := d.AlertsOf(AlertBeaconMismatch)
		if len(alerts) != 1 {
			t.Fatalf("beacon alerts = %v", d.Alerts)
		}
	}
}

func TestBeaconStableNoAlert(t *testing.T) {
	_, d := newDetector()
	for i := 0; i < 100; i++ {
		d.Observe(beaconFrame(apMAC, "CORP", 1, 100, dot11.CapESS|dot11.CapPrivacy), phy.RxInfo{})
	}
	if len(d.Alerts) != 0 {
		t.Fatalf("alerts on stable beacons: %v", d.Alerts)
	}
}

// TestKnownBeaconAllocFree pins the sensor's steady state at zero
// allocations: a beacon matching its BSSID's fingerprint is parsed and
// compared in place.
func TestKnownBeaconAllocFree(t *testing.T) {
	_, d := newDetector()
	f := beaconFrame(apMAC, "CORP", 1, 100, dot11.CapESS)
	d.Observe(f, phy.RxInfo{})
	if avg := testing.AllocsPerRun(100, func() { d.Observe(f, phy.RxInfo{}) }); avg != 0 {
		t.Fatalf("observing a known beacon allocates %.1f times, want 0", avg)
	}
	if len(d.Alerts) != 0 {
		t.Fatalf("alerts on a repeated beacon: %v", d.Alerts)
	}
}

func TestDeauthFloodDetected(t *testing.T) {
	k, d := newDetector()
	deauth := dot11.Frame{
		Type: dot11.TypeManagement, Subtype: dot11.SubtypeDeauth,
		Addr1: staMAC, Addr2: apMAC, Addr3: apMAC,
		Body: (&dot11.ReasonBody{Reason: 3}).Marshal(),
	}
	for i := 0; i < 10; i++ {
		d.Observe(deauth, phy.RxInfo{})
		k.RunFor(50 * sim.Millisecond)
	}
	if len(d.AlertsOf(AlertDeauthFlood)) != 1 {
		t.Fatalf("deauth alerts = %v", d.Alerts)
	}
}

func TestSlowDeauthsNotFlood(t *testing.T) {
	k, d := newDetector()
	deauth := dot11.Frame{
		Type: dot11.TypeManagement, Subtype: dot11.SubtypeDeauth,
		Addr1: staMAC, Addr2: apMAC, Addr3: apMAC,
		Body: (&dot11.ReasonBody{Reason: 3}).Marshal(),
	}
	for i := 0; i < 10; i++ {
		d.Observe(deauth, phy.RxInfo{})
		k.RunFor(5 * sim.Second)
	}
	if len(d.Alerts) != 0 {
		t.Fatalf("alerts on slow deauths: %v", d.Alerts)
	}
}

func TestOnAlertCallback(t *testing.T) {
	_, d := newDetector()
	fired := 0
	d.OnAlert = func(a Alert) { fired++ }
	a, b := uint16(0), uint16(2000)
	for i := 0; i < 50; i++ {
		d.Observe(frame(apMAC, a), phy.RxInfo{})
		a++
		d.Observe(frame(apMAC, b), phy.RxInfo{})
		b++
	}
	if fired != len(d.Alerts) || fired == 0 {
		t.Fatalf("fired=%d alerts=%d", fired, len(d.Alerts))
	}
}

func TestAlertString(t *testing.T) {
	a := Alert{Kind: AlertSeqAnomaly, MAC: apMAC, Detail: "x"}
	if a.String() == "" {
		t.Fatal("empty alert string")
	}
	for k, want := range map[AlertKind]string{
		AlertSeqAnomaly: "sequence-anomaly", AlertBeaconMismatch: "beacon-mismatch", AlertDeauthFlood: "deauth-flood",
	} {
		if k.String() != want {
			t.Errorf("%d = %q", k, k.String())
		}
	}
}

// Live integration: a monitor-fed detector catches a cloned-BSSID rogue.
func TestLiveRogueDetection(t *testing.T) {
	k := sim.NewKernel(1)
	m := phy.NewMedium(k, phy.Config{})
	// Real AP on channel 1, rogue clone on channel 6.
	dot11.NewAP(k, m.AddRadio(phy.RadioConfig{Name: "real", Pos: phy.Position{X: 0, Y: 0}, Channel: 1}),
		dot11.APConfig{SSID: "CORP", BSSID: apMAC, Channel: 1})
	dot11.NewAP(k, m.AddRadio(phy.RadioConfig{Name: "rogue", Pos: phy.Position{X: 30, Y: 0}, Channel: 6}),
		dot11.APConfig{SSID: "CORP", BSSID: apMAC, Channel: 6})

	monRadio := m.AddRadio(phy.RadioConfig{Name: "sensor", Pos: phy.Position{X: 15, Y: 0}, Channel: 1})
	mon := dot11.NewMonitor(monRadio)
	d := New(k)
	d.Attach(mon)
	NewHopper(k, mon, 200*sim.Millisecond)

	k.RunUntil(30 * sim.Second)
	if len(d.AlertsOf(AlertSeqAnomaly)) == 0 && len(d.AlertsOf(AlertBeaconMismatch)) == 0 {
		t.Fatalf("hopping sensor failed to detect cloned-BSSID rogue (saw %d frames)", d.FramesSeen)
	}
}

func TestLiveHealthyNetworkQuiet(t *testing.T) {
	k := sim.NewKernel(1)
	m := phy.NewMedium(k, phy.Config{})
	dot11.NewAP(k, m.AddRadio(phy.RadioConfig{Name: "real", Pos: phy.Position{X: 0, Y: 0}, Channel: 1}),
		dot11.APConfig{SSID: "CORP", BSSID: apMAC, Channel: 1})
	sta := dot11.NewSTA(k, m.AddRadio(phy.RadioConfig{Name: "sta", Pos: phy.Position{X: 10, Y: 0}, Channel: 1}),
		dot11.STAConfig{MAC: staMAC, SSID: "CORP"})
	sta.Connect()

	monRadio := m.AddRadio(phy.RadioConfig{Name: "sensor", Pos: phy.Position{X: 5, Y: 0}, Channel: 1})
	mon := dot11.NewMonitor(monRadio)
	d := New(k)
	d.Attach(mon)
	NewHopper(k, mon, 200*sim.Millisecond)

	k.RunUntil(30 * sim.Second)
	if len(d.Alerts) != 0 {
		t.Fatalf("false positives on healthy network: %v", d.Alerts)
	}
}
