package dot11

import (
	"testing"

	"repro/internal/ethernet"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/wep"
)

// testWorld bundles the common AP + STA fixture.
type testWorld struct {
	k  *sim.Kernel
	m  *phy.Medium
	ap *AP
	st *STA
}

func newWorld(t *testing.T, apCfg APConfig, staCfg STAConfig) *testWorld {
	t.Helper()
	k := sim.NewKernel(1)
	m := phy.NewMedium(k, phy.Config{})
	if apCfg.BSSID == (ethernet.MAC{}) {
		apCfg.BSSID = macAP
	}
	if apCfg.SSID == "" {
		apCfg.SSID = "CORP"
	}
	if apCfg.Channel == 0 {
		apCfg.Channel = 1
	}
	apRadio := m.AddRadio(phy.RadioConfig{Name: "ap", Pos: phy.Position{X: 0, Y: 0}, Channel: apCfg.Channel})
	ap := NewAP(k, apRadio, apCfg)

	if staCfg.MAC == (ethernet.MAC{}) {
		staCfg.MAC = macSTA
	}
	if staCfg.SSID == "" {
		staCfg.SSID = "CORP"
	}
	staRadio := m.AddRadio(phy.RadioConfig{Name: "sta", Pos: phy.Position{X: 10, Y: 0}, Channel: 1})
	st := NewSTA(k, staRadio, staCfg)
	return &testWorld{k: k, m: m, ap: ap, st: st}
}

// send transmits a pooled copy of payload through nic, as a caller holding
// only a byte slice does.
func send(k *sim.Kernel, nic ethernet.NIC, dst ethernet.MAC, t ethernet.EtherType, payload []byte) {
	nic.SendBuf(dst, t, k.BufPool().GetCopy(payload))
}

// settle runs the world long enough for a full scan + join.
func (w *testWorld) settle() { w.k.RunUntil(w.k.Now() + 5*sim.Second) }

func TestOpenNetworkAssociation(t *testing.T) {
	w := newWorld(t, APConfig{}, STAConfig{})
	var joined BSS
	w.st.OnAssociate = func(b BSS) { joined = b }
	w.st.Connect()
	w.settle()
	if w.st.State() != StateAssociated {
		t.Fatalf("state = %v", w.st.State())
	}
	if joined.BSSID != macAP || joined.SSID != "CORP" || joined.Channel != 1 {
		t.Fatalf("joined %+v", joined)
	}
	if !w.ap.IsAssociated(macSTA) {
		t.Fatal("AP does not list station")
	}
	if w.ap.Associations != 1 {
		t.Fatalf("Associations = %d", w.ap.Associations)
	}
}

func TestWEPSharedKeyAssociation(t *testing.T) {
	key := wep.Key40FromString("SECRET")
	w := newWorld(t, APConfig{WEPKey: key}, STAConfig{WEPKey: key, SharedKeyAuth: true})
	w.st.Connect()
	w.settle()
	if w.st.State() != StateAssociated {
		t.Fatalf("state = %v", w.st.State())
	}
}

func TestSharedKeyAuthWrongKeyRejected(t *testing.T) {
	w := newWorld(t,
		APConfig{WEPKey: wep.Key40FromString("SECRET")},
		STAConfig{WEPKey: wep.Key40FromString("WRONG!"), SharedKeyAuth: true, DisableReconnect: true})
	w.st.Connect()
	w.settle()
	if w.st.State() == StateAssociated {
		t.Fatal("station with wrong key associated")
	}
	if w.ap.ICVFailures == 0 {
		t.Fatal("AP recorded no ICV failures")
	}
}

func TestMACFilterBlocksUnlisted(t *testing.T) {
	allowed := ethernet.MustParseMAC("02:00:00:00:00:aa")
	w := newWorld(t, APConfig{MACAllow: []ethernet.MAC{allowed}}, STAConfig{DisableReconnect: true})
	w.st.Connect()
	w.settle()
	if w.st.State() == StateAssociated {
		t.Fatal("unlisted MAC associated")
	}
	if w.ap.AuthRejects == 0 {
		t.Fatal("no auth rejects recorded")
	}
}

func TestMACFilterAllowsClonedMAC(t *testing.T) {
	// Paper §2.1: "valid MACs can be sniffed from the network" — cloning a
	// listed MAC walks straight through the ACL.
	allowed := ethernet.MustParseMAC("02:00:00:00:00:aa")
	w := newWorld(t, APConfig{MACAllow: []ethernet.MAC{allowed}}, STAConfig{MAC: allowed})
	w.st.Connect()
	w.settle()
	if w.st.State() != StateAssociated {
		t.Fatal("cloned MAC did not associate")
	}
}

func TestDataTransferBetweenHostAndStation(t *testing.T) {
	w := newWorld(t, APConfig{}, STAConfig{})
	w.st.Connect()
	w.settle()

	// Host (AP side) <-> station exchange.
	var atHost, atSTA []byte
	w.ap.HostNIC().SetReceiver(func(f ethernet.Frame) { atHost = append([]byte{}, f.Payload...) })
	w.st.NIC().SetReceiver(func(f ethernet.Frame) { atSTA = append([]byte{}, f.Payload...) })

	send(w.k, w.st.NIC(), macAP, ethernet.TypeIPv4, []byte("uplink"))
	w.k.RunFor(100 * sim.Millisecond)
	if string(atHost) != "uplink" {
		t.Fatalf("host got %q", atHost)
	}
	send(w.k, w.ap.HostNIC(), macSTA, ethernet.TypeIPv4, []byte("downlink"))
	w.k.RunFor(100 * sim.Millisecond)
	if string(atSTA) != "downlink" {
		t.Fatalf("station got %q", atSTA)
	}
}

func TestWEPDataTransfer(t *testing.T) {
	key := wep.Key40FromString("SECRET")
	w := newWorld(t, APConfig{WEPKey: key}, STAConfig{WEPKey: key})
	w.st.Connect()
	w.settle()
	var got []byte
	w.ap.HostNIC().SetReceiver(func(f ethernet.Frame) { got = append([]byte{}, f.Payload...) })
	send(w.k, w.st.NIC(), macAP, ethernet.TypeIPv4, []byte("encrypted hello"))
	w.k.RunFor(100 * sim.Millisecond)
	if string(got) != "encrypted hello" {
		t.Fatalf("got %q", got)
	}
}

func TestWEPOnAirCiphertextDiffers(t *testing.T) {
	// Confirm data bodies on the air are actually encrypted.
	key := wep.Key40FromString("SECRET")
	w := newWorld(t, APConfig{WEPKey: key}, STAConfig{WEPKey: key})
	w.st.Connect()
	w.settle()

	monRadio := w.m.AddRadio(phy.RadioConfig{Name: "mon", Pos: phy.Position{X: 5, Y: 0}, Channel: 1})
	mon := NewMonitor(monRadio)
	var sawPlain, sawProtected bool
	mon.OnFrame = func(f Frame, info phy.RxInfo) {
		if f.Type != TypeData {
			return
		}
		if f.Protected {
			sawProtected = true
			// First ciphertext byte should not be the LLC 0xAA (whp).
			if len(f.Body) > wep.HeaderLen && f.Body[wep.HeaderLen] == 0xaa {
				// possible but unlikely; tolerated
			}
			if _, _, err := DecapsulateLLC(f.Body); err == nil {
				sawPlain = true
			}
		}
	}
	w.ap.HostNIC().SetReceiver(func(f ethernet.Frame) {})
	send(w.k, w.st.NIC(), macAP, ethernet.TypeIPv4, []byte("secret payload"))
	w.k.RunFor(100 * sim.Millisecond)
	if !sawProtected {
		t.Fatal("no protected data frame observed")
	}
	if sawPlain {
		t.Fatal("protected body parsed as cleartext LLC")
	}
}

func TestUnencryptedFrameDroppedByWEPAP(t *testing.T) {
	key := wep.Key40FromString("SECRET")
	w := newWorld(t, APConfig{WEPKey: key}, STAConfig{WEPKey: key})
	w.st.Connect()
	w.settle()
	// Bypass the STA's WEP by injecting a cleartext data frame.
	inj := NewInjector(w.k, w.m.AddRadio(phy.RadioConfig{Name: "inj", Pos: phy.Position{X: 1, Y: 0}, Channel: 1}))
	got := false
	w.ap.HostNIC().SetReceiver(func(f ethernet.Frame) { got = true })
	inj.Inject(Frame{
		Type: TypeData, ToDS: true,
		Addr1: macAP, Addr2: macSTA, Addr3: macAP,
		Body: EncapsulateLLC(ethernet.TypeIPv4, []byte("clear")),
	})
	w.k.RunFor(100 * sim.Millisecond)
	if got {
		t.Fatal("cleartext frame accepted by WEP AP")
	}
	if w.ap.UnprotectedDrops == 0 {
		t.Fatal("UnprotectedDrops not counted")
	}
}

func TestDeauthDisconnectsAndReconnects(t *testing.T) {
	w := newWorld(t, APConfig{}, STAConfig{})
	w.st.Connect()
	w.settle()
	var reasons []string
	w.st.OnDisconnect = func(r string) { reasons = append(reasons, r) }
	w.ap.Deauth(macSTA, ReasonDeauthLeaving)
	w.k.RunFor(50 * sim.Millisecond)
	if len(reasons) != 1 {
		t.Fatalf("disconnect reasons %v", reasons)
	}
	// Auto-reconnect should re-associate.
	w.settle()
	if w.st.State() != StateAssociated {
		t.Fatalf("state after reconnect = %v", w.st.State())
	}
	if w.st.AssocCount != 2 {
		t.Fatalf("AssocCount = %d, want 2", w.st.AssocCount)
	}
}

func TestSpoofedDeauthAccepted(t *testing.T) {
	// The vulnerability the rogue's "force disassociation" step uses:
	// deauth frames are unauthenticated, so anyone can forge them.
	w := newWorld(t, APConfig{}, STAConfig{DisableReconnect: true})
	w.st.Connect()
	w.settle()
	inj := NewInjector(w.k, w.m.AddRadio(phy.RadioConfig{Name: "attacker", Pos: phy.Position{X: 20, Y: 0}, Channel: 1}))
	inj.Inject(Frame{
		Type: TypeManagement, Subtype: SubtypeDeauth,
		Addr1: macSTA, Addr2: macAP, Addr3: macAP, // forged source = real AP
		Body: (&ReasonBody{Reason: ReasonDeauthLeaving}).Marshal(),
	})
	w.k.RunFor(50 * sim.Millisecond)
	if w.st.State() == StateAssociated {
		t.Fatal("station survived spoofed deauth")
	}
	if w.st.DeauthsReceived != 1 {
		t.Fatalf("DeauthsReceived = %d", w.st.DeauthsReceived)
	}
}

func TestBeaconLossTriggersDisconnect(t *testing.T) {
	w := newWorld(t, APConfig{}, STAConfig{DisableReconnect: true})
	w.st.Connect()
	w.settle()
	w.ap.Stop()
	var reason string
	w.st.OnDisconnect = func(r string) { reason = r }
	w.k.RunFor(3 * sim.Second)
	if reason != "beacon loss" {
		t.Fatalf("reason = %q", reason)
	}
}

func TestStrongestAPWinsAssociation(t *testing.T) {
	// Two APs, same SSID: the closer (stronger) one gets the client. This
	// is experiment E1's mechanism in miniature.
	k := sim.NewKernel(1)
	m := phy.NewMedium(k, phy.Config{})
	farBSSID := ethernet.MustParseMAC("02:00:00:00:0f:aa")
	nearBSSID := ethernet.MustParseMAC("02:00:00:00:0f:bb")
	NewAP(k, m.AddRadio(phy.RadioConfig{Name: "far", Pos: phy.Position{X: 60, Y: 0}, Channel: 1}),
		APConfig{SSID: "CORP", BSSID: farBSSID, Channel: 1})
	NewAP(k, m.AddRadio(phy.RadioConfig{Name: "near", Pos: phy.Position{X: 5, Y: 0}, Channel: 6}),
		APConfig{SSID: "CORP", BSSID: nearBSSID, Channel: 6})
	st := NewSTA(k, m.AddRadio(phy.RadioConfig{Name: "sta", Pos: phy.Position{X: 0, Y: 0}, Channel: 1}),
		STAConfig{MAC: macSTA, SSID: "CORP"})
	st.Connect()
	k.RunUntil(5 * sim.Second)
	if st.State() != StateAssociated {
		t.Fatalf("state = %v", st.State())
	}
	if st.BSS().BSSID != nearBSSID {
		t.Fatalf("joined %v, want the stronger AP %v", st.BSS().BSSID, nearBSSID)
	}
}

func TestPinnedBSSIDFollowsClone(t *testing.T) {
	// BSSID pinning does not defend against a BSSID-cloning rogue.
	k := sim.NewKernel(1)
	m := phy.NewMedium(k, phy.Config{})
	bssid := ethernet.MustParseMAC("02:00:00:00:0f:aa")
	// Only the rogue is on the air (real AP out of range/jammed), but it
	// clones the pinned BSSID on another channel.
	NewAP(k, m.AddRadio(phy.RadioConfig{Name: "rogue", Pos: phy.Position{X: 5, Y: 0}, Channel: 6}),
		APConfig{SSID: "CORP", BSSID: bssid, Channel: 6})
	st := NewSTA(k, m.AddRadio(phy.RadioConfig{Name: "sta", Pos: phy.Position{X: 0, Y: 0}, Channel: 1}),
		STAConfig{MAC: macSTA, SSID: "CORP", JoinPolicy: JoinPinnedBSSID, PinnedBSSID: bssid})
	st.Connect()
	k.RunUntil(5 * sim.Second)
	if st.State() != StateAssociated || st.BSS().Channel != 6 {
		t.Fatalf("pinned client did not join the cloned BSSID (state %v, ch %v)", st.State(), st.BSS().Channel)
	}
}

func TestScanFindsAPOnEveryChannel(t *testing.T) {
	for _, ch := range []phy.Channel{1, 6, 11} {
		w := newWorld(t, APConfig{Channel: ch}, STAConfig{})
		w.st.Connect()
		w.settle()
		if w.st.State() != StateAssociated {
			t.Fatalf("channel %d: state %v", ch, w.st.State())
		}
		if w.st.BSS().Channel != ch {
			t.Fatalf("channel %d: BSS channel %d", ch, w.st.BSS().Channel)
		}
	}
}

func TestAPBridgesToUplink(t *testing.T) {
	w := newWorld(t, APConfig{}, STAConfig{})
	// Wire the AP into a switch with a server behind it.
	var alloc ethernet.MACAllocator
	sw := ethernet.NewSwitch(w.k, &alloc, ethernet.SwitchConfig{})
	apPort := sw.Attach(alloc.Next())
	w.ap.AttachUplink(apPort)
	serverMAC := ethernet.MustParseMAC("02:00:00:00:ee:01")
	serverPort := sw.Attach(serverMAC)
	var atServer []byte
	serverPort.SetReceiver(func(f ethernet.Frame) {
		atServer = append([]byte{}, f.Payload...)
		// Reply.
		send(w.k, serverPort, f.Src, ethernet.TypeIPv4, []byte("pong"))
	})

	w.st.Connect()
	w.settle()
	var atSTA []byte
	w.st.NIC().SetReceiver(func(f ethernet.Frame) { atSTA = append([]byte{}, f.Payload...) })
	send(w.k, w.st.NIC(), serverMAC, ethernet.TypeIPv4, []byte("ping"))
	w.k.RunFor(200 * sim.Millisecond)
	if string(atServer) != "ping" {
		t.Fatalf("server got %q", atServer)
	}
	if string(atSTA) != "pong" {
		t.Fatalf("station got %q", atSTA)
	}
}

func TestBroadcastFromStationReachesEverything(t *testing.T) {
	w := newWorld(t, APConfig{}, STAConfig{})
	var alloc ethernet.MACAllocator
	sw := ethernet.NewSwitch(w.k, &alloc, ethernet.SwitchConfig{})
	apPort := sw.Attach(alloc.Next())
	w.ap.AttachUplink(apPort)
	wiredPort := sw.Attach(ethernet.MustParseMAC("02:00:00:00:ee:02"))
	wiredGot, hostGot := false, false
	wiredPort.SetReceiver(func(f ethernet.Frame) { wiredGot = true })
	w.ap.HostNIC().SetReceiver(func(f ethernet.Frame) { hostGot = true })

	w.st.Connect()
	w.settle()
	send(w.k, w.st.NIC(), ethernet.BroadcastMAC, ethernet.TypeARP, []byte("who-has"))
	w.k.RunFor(200 * sim.Millisecond)
	if !wiredGot || !hostGot {
		t.Fatalf("broadcast wired=%v host=%v", wiredGot, hostGot)
	}
}

func TestSequenceNumbersMonotonic(t *testing.T) {
	w := newWorld(t, APConfig{}, STAConfig{})
	monRadio := w.m.AddRadio(phy.RadioConfig{Name: "mon", Pos: phy.Position{X: 5, Y: 0}, Channel: 1})
	mon := NewMonitor(monRadio)
	var seqs []uint16
	mon.OnFrame = func(f Frame, info phy.RxInfo) {
		if f.Addr2 == macAP {
			seqs = append(seqs, f.Seq)
		}
	}
	w.k.RunUntil(3 * sim.Second)
	if len(seqs) < 10 {
		t.Fatalf("monitor saw only %d AP frames", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != (seqs[i-1]+1)&0x0fff {
			t.Fatalf("AP sequence numbers not consecutive: %d -> %d", seqs[i-1], seqs[i])
		}
	}
}

func TestMonitorSeesAllTraffic(t *testing.T) {
	w := newWorld(t, APConfig{}, STAConfig{})
	monRadio := w.m.AddRadio(phy.RadioConfig{Name: "mon", Pos: phy.Position{X: 5, Y: 0}, Channel: 1})
	mon := NewMonitor(monRadio)
	dataFrames := 0
	mon.OnFrame = func(f Frame, info phy.RxInfo) {
		if f.Type == TypeData {
			dataFrames++
		}
	}
	w.st.Connect()
	w.settle()
	w.ap.HostNIC().SetReceiver(func(f ethernet.Frame) {})
	for i := 0; i < 10; i++ {
		send(w.k, w.st.NIC(), macAP, ethernet.TypeIPv4, []byte("x"))
	}
	w.k.RunFor(time500ms())
	if dataFrames < 10 {
		t.Fatalf("monitor saw %d/10 data frames", dataFrames)
	}
}

func time500ms() sim.Time { return 500 * sim.Millisecond }

func TestClass3FrameTriggersDeauth(t *testing.T) {
	w := newWorld(t, APConfig{}, STAConfig{})
	// Send data before associating.
	inj := NewInjector(w.k, w.m.AddRadio(phy.RadioConfig{Name: "inj", Pos: phy.Position{X: 1, Y: 0}, Channel: 1}))
	inj.Inject(Frame{
		Type: TypeData, ToDS: true,
		Addr1: macAP, Addr2: ethernet.MustParseMAC("02:00:00:00:00:77"), Addr3: macAP,
		Body: EncapsulateLLC(ethernet.TypeIPv4, []byte("early")),
	})
	w.k.RunFor(100 * sim.Millisecond)
	if w.ap.Class3Errors != 1 {
		t.Fatalf("Class3Errors = %d", w.ap.Class3Errors)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[STAState]string{
		StateIdle: "idle", StateScanning: "scanning", StateAuthenticating: "authenticating",
		StateAssociating: "associating", StateAssociated: "associated",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}
