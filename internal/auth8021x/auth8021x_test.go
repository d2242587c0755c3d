package auth8021x

import (
	"testing"
	"testing/quick"

	"repro/internal/dot11"
	"repro/internal/ethernet"
	"repro/internal/phy"
	"repro/internal/sim"
)

var (
	bssid  = ethernet.MustParseMAC("02:aa:bb:cc:dd:01")
	staMAC = ethernet.MustParseMAC("02:00:00:00:03:01")
)

// world: one AP with an authenticator, one station with a supplicant that
// starts 802.1x upon association.
type world struct {
	k    *sim.Kernel
	m    *phy.Medium
	ap   *dot11.AP
	sta  *dot11.STA
	auth *Authenticator
	supp *Supplicant
}

func newWorld(t *testing.T, creds map[string]string, user, pass string, rogue bool) *world {
	t.Helper()
	k := sim.NewKernel(1)
	m := phy.NewMedium(k, phy.Config{})
	ap := dot11.NewAP(k, m.AddRadio(phy.RadioConfig{Name: "ap", Channel: 1}),
		dot11.APConfig{SSID: "CORP", BSSID: bssid, Channel: 1})
	var auth *Authenticator
	if rogue {
		auth = NewAcceptAllAuthenticator(ap)
	} else {
		auth = NewAuthenticator(ap, NewServer(k.RNG().Fork(), creds))
	}
	sta := dot11.NewSTA(k, m.AddRadio(phy.RadioConfig{Name: "sta", Pos: phy.Position{X: 10}, Channel: 1}),
		dot11.STAConfig{MAC: staMAC, SSID: "CORP"})
	supp := NewSupplicant(sta.NIC(), user, pass)
	sta.OnAssociate = func(dot11.BSS) { supp.Start() }
	sta.Connect()
	return &world{k: k, m: m, ap: ap, sta: sta, auth: auth, supp: supp}
}

func TestEAPMD5Success(t *testing.T) {
	w := newWorld(t, map[string]string{"alice": "hunter2"}, "alice", "hunter2", false)
	w.k.RunUntil(10 * sim.Second)
	if !w.supp.Authorized() {
		t.Fatal("supplicant not authorized with valid credentials")
	}
	if !w.auth.Authorized(staMAC) {
		t.Fatal("authenticator does not list the port as authorized")
	}
	if w.auth.Successes != 1 {
		t.Fatalf("Successes = %d", w.auth.Successes)
	}
}

func TestEAPMD5WrongPassword(t *testing.T) {
	w := newWorld(t, map[string]string{"alice": "hunter2"}, "alice", "wrong", false)
	w.k.RunUntil(10 * sim.Second)
	if w.supp.Authorized() {
		t.Fatal("authorized with wrong password")
	}
	if w.auth.Failures == 0 {
		t.Fatal("no failure recorded")
	}
}

func TestEAPUnknownUser(t *testing.T) {
	w := newWorld(t, map[string]string{"alice": "hunter2"}, "mallory", "hunter2", false)
	w.k.RunUntil(10 * sim.Second)
	if w.supp.Authorized() {
		t.Fatal("unknown identity authorized")
	}
}

func TestPortGateBlocksUnauthorized(t *testing.T) {
	// Station with wrong credentials associates at the 802.11 layer but its
	// IP-ish traffic must be dropped at the controlled port.
	w := newWorld(t, map[string]string{"alice": "hunter2"}, "alice", "wrong", false)
	w.k.RunUntil(10 * sim.Second)
	before := w.ap.GateDrops
	w.supp.SendBuf(bssid, ethernet.TypeIPv4, w.k.BufPool().GetCopy([]byte("sneaky")))
	w.k.RunFor(sim.Second)
	if w.ap.GateDrops != before+1 {
		t.Fatalf("GateDrops %d -> %d, want +1", before, w.ap.GateDrops)
	}
}

func TestPortGatePassesAuthorized(t *testing.T) {
	w := newWorld(t, map[string]string{"alice": "hunter2"}, "alice", "hunter2", false)
	w.k.RunUntil(10 * sim.Second)
	if !w.supp.Authorized() {
		t.Fatal("setup: not authorized")
	}
	// Attach a wired host behind the AP and confirm traffic passes.
	var alloc ethernet.MACAllocator
	sw := ethernet.NewSwitch(w.k, &alloc)
	w.ap.AttachUplink(sw.Attach(alloc.Next()))
	dstMAC := ethernet.MustParseMAC("02:00:00:00:ee:01")
	port := sw.Attach(dstMAC)
	var got []byte
	port.SetReceiver(func(f ethernet.Frame) { got = append([]byte{}, f.Payload...) })
	w.supp.SendBuf(dstMAC, ethernet.TypeIPv4, w.k.BufPool().GetCopy([]byte("legit")))
	w.k.RunFor(sim.Second)
	if string(got) != "legit" {
		t.Fatalf("authorized traffic did not pass: %q", got)
	}
}

func TestRogueAcceptAllPassesAnySupplicant(t *testing.T) {
	// The paper's §2.2 point, executable: the supplicant presents no
	// defense against a network that just says "Success". Credentials are
	// garbage; the rogue authorizes anyway; the client cannot tell.
	w := newWorld(t, nil, "whoever", "whatever", true)
	w.k.RunUntil(10 * sim.Second)
	if !w.supp.Authorized() {
		t.Fatal("rogue accept-all authenticator failed to fool the supplicant")
	}
	if !w.auth.Authorized(staMAC) {
		t.Fatal("rogue did not open the port")
	}
}

func TestSupplicantIndistinguishability(t *testing.T) {
	// Same supplicant config against the real network and the rogue: both
	// end Authorized. There is no observable the client could branch on —
	// which is exactly why the paper demands a VPN to a *pre-arranged*
	// endpoint instead.
	real := newWorld(t, map[string]string{"alice": "hunter2"}, "alice", "hunter2", false)
	real.k.RunUntil(10 * sim.Second)
	rogue := newWorld(t, nil, "alice", "hunter2", true)
	rogue.k.RunUntil(10 * sim.Second)
	if !real.supp.Authorized() || !rogue.supp.Authorized() {
		t.Fatalf("real=%v rogue=%v — both should authorize", real.supp.Authorized(), rogue.supp.Authorized())
	}
}

func TestLogoffClosesPort(t *testing.T) {
	w := newWorld(t, map[string]string{"alice": "hunter2"}, "alice", "hunter2", false)
	w.k.RunUntil(10 * sim.Second)
	if !w.auth.Authorized(staMAC) {
		t.Fatal("setup: not authorized")
	}
	w.supp.SendBuf(PAEGroupMAC, EtherTypeEAPOL, w.k.BufPool().GetCopy(eapol(eapolLogoff, nil)))
	w.k.RunFor(sim.Second)
	if w.auth.Authorized(staMAC) {
		t.Fatal("port still open after logoff")
	}
}

func TestEAPParsing(t *testing.T) {
	pkt := eap(eapRequest, 7, eapTypeIdentity, []byte("who?"))
	code, id, typ, data, err := parseEAP(pkt)
	if err != nil || code != eapRequest || id != 7 || typ != eapTypeIdentity || string(data) != "who?" {
		t.Fatalf("parsed code=%d id=%d typ=%d data=%q err=%v", code, id, typ, data, err)
	}
	if _, _, _, _, err := parseEAP([]byte{1, 2}); err == nil {
		t.Fatal("short EAP accepted")
	}
	if _, _, _, _, err := parseEAP([]byte{1, 2, 0, 99}); err == nil {
		t.Fatal("bad length accepted")
	}
	// Success has no type/data.
	s := eap(eapSuccess, 3, 0, nil)
	if len(s) != 4 {
		t.Fatalf("success len %d", len(s))
	}
}

func TestMD5ResponseDeterministic(t *testing.T) {
	a := md5Response(1, "pw", []byte("challenge"))
	b := md5Response(1, "pw", []byte("challenge"))
	c := md5Response(2, "pw", []byte("challenge"))
	if string(a) != string(b) {
		t.Fatal("nondeterministic")
	}
	if string(a) == string(c) {
		t.Fatal("id not mixed in")
	}
}

// EAP/EAPOL handlers must never panic on arbitrary bytes.
func TestQuickEAPOLNoPanic(t *testing.T) {
	w := newWorld(t, map[string]string{"a": "b"}, "a", "b", false)
	w.k.RunUntil(2 * sim.Second)
	f := func(b []byte) bool {
		w.auth.onEAPOL(staMAC, b)
		w.supp.onEAPOL(b)
		_, _, _, _, _ = parseEAP(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
