package dot11

import (
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
)

// TestBackoffGrowsWhenNoAP proves the reconnect ladder climbs: with no AP on
// the air, scan cycles must get sparser over time instead of running
// back-to-back. A full 11-channel scan takes ~1.35 s, so immediate rescans
// would fit ~44 cycles into a minute; backoff (250 ms doubling to 8 s) caps
// it far lower.
func TestBackoffGrowsWhenNoAP(t *testing.T) {
	k := sim.NewKernel(1)
	m := phy.NewMedium(k, phy.Config{})
	radio := m.AddRadio(phy.RadioConfig{Name: "sta", Channel: 1})
	st := NewSTA(k, radio, STAConfig{MAC: macSTA, SSID: "CORP"})
	st.Connect()

	var atTen uint64
	k.At(10*sim.Second, func() { atTen = st.ScanCycles })
	k.RunUntil(60 * sim.Second)

	if st.Backoffs == 0 {
		t.Fatal("no backoffs recorded while scanning an empty medium")
	}
	if st.BackoffLevel() == 0 {
		t.Fatal("backoff ladder did not climb")
	}
	if st.ScanCycles > 20 {
		t.Errorf("ScanCycles = %d in 60s — retries are not backing off", st.ScanCycles)
	}
	// The ladder caps at 8 s, so the last 50 seconds hold at most ~6 cycles;
	// without backoff they would hold ~37.
	late := st.ScanCycles - atTen
	if late > 8 {
		t.Errorf("%d scan cycles in the last 50s — ladder did not reach its cap", late)
	}
}

// TestBackoffResetsOnAssociation proves a successful join resets the ladder:
// fail for a while against dead air, then crash-restart the AP's radio and
// let the client in.
func TestBackoffResetsOnAssociation(t *testing.T) {
	w := newWorld(t, APConfig{}, STAConfig{})
	w.ap.SetDown(true) // nothing to find at first
	w.st.Connect()
	w.k.RunUntil(15 * sim.Second)
	if w.st.BackoffLevel() == 0 {
		t.Fatal("ladder flat while the AP is down")
	}
	w.ap.SetDown(false)
	w.k.RunUntil(w.k.Now() + 30*sim.Second)
	if w.st.State() != StateAssociated {
		t.Fatalf("state = %v after AP restart", w.st.State())
	}
	if w.st.BackoffLevel() != 0 {
		t.Errorf("BackoffLevel = %d after association, want 0", w.st.BackoffLevel())
	}
}

// TestDeauthDoesNotLivelock floods the client with forged deauths and checks
// it keeps reassociating at a bounded rate: each deauth costs at least the
// base backoff before the next scan, so the scan count stays far below the
// deauth count, and once the storm ends the client settles back in.
func TestDeauthDoesNotLivelock(t *testing.T) {
	w := newWorld(t, APConfig{}, STAConfig{})
	w.st.Connect()
	w.settle()
	if w.st.State() != StateAssociated {
		t.Fatal("precondition: not associated")
	}

	// Forge deauths from the AP's BSSID every 50 ms for 20 s.
	inj := NewInjector(w.k, w.m.AddRadio(phy.RadioConfig{Name: "attacker", Pos: phy.Position{X: 5}, Channel: 1}))
	deauths := 0
	var tick func()
	tick = func() {
		if w.k.Now() > 25*sim.Second {
			return
		}
		deauths++
		inj.Inject(Frame{
			Type: TypeManagement, Subtype: SubtypeDeauth,
			Addr1: macSTA, Addr2: macAP, Addr3: macAP,
			Body: (&ReasonBody{Reason: ReasonDeauthLeaving}).Marshal(),
		})
		w.k.After(50*sim.Millisecond, tick)
	}
	w.k.At(5*sim.Second, tick)
	w.k.RunUntil(60 * sim.Second)

	if w.st.State() != StateAssociated {
		t.Errorf("state = %v after the storm passed", w.st.State())
	}
	if w.st.DeauthsReceived == 0 {
		t.Fatal("storm never landed")
	}
	// One scan per landed deauth plus the initial connect: every recovery
	// cycle pays at least the base backoff, so the 400-frame storm cannot
	// trigger more scans than the deauths that actually connected.
	if w.st.ScanCycles > w.st.DeauthsReceived+1 {
		t.Errorf("ScanCycles %d > deauths received %d + 1 — client is scan-livelocked",
			w.st.ScanCycles, w.st.DeauthsReceived)
	}
}
