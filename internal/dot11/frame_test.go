package dot11

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/ethernet"
)

var (
	macAP  = ethernet.MustParseMAC("02:00:00:aa:bb:cc")
	macSTA = ethernet.MustParseMAC("02:00:00:11:22:33")
	macDst = ethernet.MustParseMAC("02:00:00:44:55:66")
)

func TestFrameMarshalRoundTrip(t *testing.T) {
	f := Frame{
		Type: TypeData, Subtype: SubtypeDataFrame,
		ToDS: true, Protected: true, Retry: true,
		Addr1: macAP, Addr2: macSTA, Addr3: macDst,
		Seq: 1234, Frag: 3,
		Body: []byte("payload"),
	}
	g, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if g.Type != f.Type || g.Subtype != f.Subtype || g.ToDS != f.ToDS ||
		g.FromDS != f.FromDS || g.Retry != f.Retry || g.Protected != f.Protected ||
		g.Addr1 != f.Addr1 || g.Addr2 != f.Addr2 || g.Addr3 != f.Addr3 ||
		g.Seq != f.Seq || g.Frag != f.Frag || string(g.Body) != "payload" {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", f, g)
	}
}

// TestMarshalExactCapacity pins the documented allocation contract: Marshal
// returns an exactly-sized slice with no spare capacity, so repeated appends
// by a caller cannot silently grow into (and alias) adjacent frames.
func TestMarshalExactCapacity(t *testing.T) {
	f := Frame{
		Type: TypeData, Subtype: SubtypeDataFrame,
		Addr1: macAP, Addr2: macSTA, Addr3: macDst,
		Body: []byte("payload"),
	}
	b := f.Marshal()
	if cap(b) != len(b) {
		t.Fatalf("Frame.Marshal: cap %d != len %d (spare capacity)", cap(b), len(b))
	}
	pr := ProbeReqBody{SSID: "corp"}
	pb := pr.Marshal()
	if cap(pb) != len(pb) {
		t.Fatalf("ProbeReqBody.Marshal: cap %d != len %d (spare capacity)", cap(pb), len(pb))
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(typ, sub byte, toDS, fromDS, prot bool, a1, a2, a3 [6]byte, seq uint16, body []byte) bool {
		in := Frame{
			Type: Type(typ & 0x3), Subtype: Subtype(sub & 0xf),
			ToDS: toDS, FromDS: fromDS, Protected: prot,
			Addr1: ethernet.MAC(a1), Addr2: ethernet.MAC(a2), Addr3: ethernet.MAC(a3),
			Seq:  seq & 0x0fff,
			Body: body,
		}
		out, err := Unmarshal(in.Marshal())
		return err == nil &&
			out.Type == in.Type && out.Subtype == in.Subtype &&
			out.ToDS == in.ToDS && out.FromDS == in.FromDS && out.Protected == in.Protected &&
			out.Addr1 == in.Addr1 && out.Addr2 == in.Addr2 && out.Addr3 == in.Addr3 &&
			out.Seq == in.Seq && bytes.Equal(out.Body, in.Body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalShort(t *testing.T) {
	if _, err := Unmarshal(make([]byte, headerLen-1)); err != ErrShortFrame {
		t.Fatal("short frame accepted")
	}
}

func TestFrameString(t *testing.T) {
	f := Frame{Type: TypeManagement, Subtype: SubtypeBeacon, Addr2: macAP}
	if s := f.String(); s == "" || s[:6] != "beacon" {
		t.Fatalf("String = %q", s)
	}
}

func TestBeaconBodyRoundTrip(t *testing.T) {
	b := BeaconBody{Timestamp: 123456789, BeaconInterval: 100, Capability: CapESS | CapPrivacy, SSID: "CORP", Channel: 6}
	g, err := UnmarshalBeaconBody(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if g != b {
		t.Fatalf("got %+v want %+v", g, b)
	}
}

func TestBeaconBodyEmptySSID(t *testing.T) {
	b := BeaconBody{BeaconInterval: 100, SSID: "", Channel: 1}
	g, err := UnmarshalBeaconBody(b.Marshal())
	if err != nil || g.SSID != "" {
		t.Fatalf("g=%+v err=%v", g, err)
	}
}

func TestBeaconBodyShort(t *testing.T) {
	if _, err := UnmarshalBeaconBody(make([]byte, 5)); err == nil {
		t.Fatal("short body accepted")
	}
}

func TestProbeReqBodyRoundTrip(t *testing.T) {
	for _, ssid := range []string{"", "CORP", "a very long network name here"} {
		b := ProbeReqBody{SSID: ssid}
		g, err := UnmarshalProbeReqBody(b.Marshal())
		if err != nil || g.SSID != ssid {
			t.Fatalf("ssid %q: g=%+v err=%v", ssid, g, err)
		}
	}
}

func TestAuthBodyRoundTrip(t *testing.T) {
	ch := make([]byte, 128)
	for i := range ch {
		ch[i] = byte(i)
	}
	b := AuthBody{Algorithm: AuthSharedKey, Seq: 2, Status: StatusSuccess, Challenge: ch}
	g, err := UnmarshalAuthBody(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if g.Algorithm != b.Algorithm || g.Seq != b.Seq || g.Status != b.Status || !bytes.Equal(g.Challenge, ch) {
		t.Fatalf("got %+v", g)
	}
}

func TestAuthBodyNoChallenge(t *testing.T) {
	b := AuthBody{Algorithm: AuthOpen, Seq: 1}
	g, err := UnmarshalAuthBody(b.Marshal())
	if err != nil || g.Challenge != nil {
		t.Fatalf("g=%+v err=%v", g, err)
	}
}

func TestAssocBodiesRoundTrip(t *testing.T) {
	req := AssocReqBody{Capability: CapESS, SSID: "CORP"}
	greq, err := UnmarshalAssocReqBody(req.Marshal())
	if err != nil || greq != req {
		t.Fatalf("req g=%+v err=%v", greq, err)
	}
	resp := AssocRespBody{Capability: CapESS, Status: StatusSuccess, AID: 7}
	gresp, err := UnmarshalAssocRespBody(resp.Marshal())
	if err != nil || gresp != resp {
		t.Fatalf("resp g=%+v err=%v", gresp, err)
	}
}

func TestReasonBodyRoundTrip(t *testing.T) {
	b := ReasonBody{Reason: ReasonClass3NotAssoc}
	g, err := UnmarshalReasonBody(b.Marshal())
	if err != nil || g != b {
		t.Fatalf("g=%+v err=%v", g, err)
	}
	if _, err := UnmarshalReasonBody([]byte{1}); err == nil {
		t.Fatal("short reason accepted")
	}
}

// TestIEWalk pins the in-place information-element walk through all four
// body parsers that read elements: a repeated element keeps its last value,
// unknown elements are skipped, a present empty challenge stays distinct from
// an absent one, and a truncated header or body fails the whole body.
func TestIEWalk(t *testing.T) {
	ie := func(id byte, v string) []byte { return append([]byte{id, byte(len(v))}, v...) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := []struct {
		name      string
		ies       []byte
		err       error
		ssid      string
		channel   byte
		challenge []byte // nil: absent
	}{
		{name: "empty list", ies: nil},
		{name: "one of each", ies: cat(ie(ieSSID, "CORP"), ie(ieDSParam, "\x06"), ie(ieChallenge, "xyz")),
			ssid: "CORP", channel: 6, challenge: []byte("xyz")},
		{name: "duplicates last wins", ies: cat(ie(ieSSID, "A"), ie(ieDSParam, "\x01"), ie(ieChallenge, "c1"),
			ie(ieSSID, "BB"), ie(ieDSParam, "\x0b"), ie(ieChallenge, "c2")),
			ssid: "BB", channel: 11, challenge: []byte("c2")},
		{name: "unknown skipped", ies: cat(ie(221, "vendor"), ie(ieSSID, "CORP"), ie(1, "\x82\x84")), ssid: "CORP"},
		{name: "empty elements", ies: cat(ie(ieSSID, ""), ie(ieChallenge, "")), challenge: []byte{}},
		{name: "wrong-size ds param", ies: ie(ieDSParam, "\x01\x02")},
		{name: "truncated header", ies: cat(ie(ieSSID, "CORP"), []byte{ieDSParam}), err: errIEHeader},
		{name: "truncated body", ies: cat(ie(ieSSID, "CORP"), []byte{ieChallenge, 5, 'a'}), err: errIEBody},
		{name: "truncated body after duplicate", ies: cat(ie(ieSSID, "A"), []byte{ieSSID, 3, 'B'}), err: errIEBody},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			beacon, err := UnmarshalBeaconBody(append(make([]byte, beaconFixedLen), c.ies...))
			if !errors.Is(err, c.err) {
				t.Fatalf("beacon: err = %v, want %v", err, c.err)
			}
			if err == nil && (beacon.SSID != c.ssid || beacon.Channel != c.channel) {
				t.Errorf("beacon: ssid %q channel %d, want %q %d", beacon.SSID, beacon.Channel, c.ssid, c.channel)
			}
			probe, err := UnmarshalProbeReqBody(c.ies)
			if !errors.Is(err, c.err) {
				t.Fatalf("probe-req: err = %v, want %v", err, c.err)
			}
			if err == nil && probe.SSID != c.ssid {
				t.Errorf("probe-req: ssid %q, want %q", probe.SSID, c.ssid)
			}
			auth, err := UnmarshalAuthBody(append(make([]byte, 6), c.ies...))
			if !errors.Is(err, c.err) {
				t.Fatalf("auth: err = %v, want %v", err, c.err)
			}
			if err == nil && ((auth.Challenge == nil) != (c.challenge == nil) || !bytes.Equal(auth.Challenge, c.challenge)) {
				t.Errorf("auth: challenge %q (nil %v), want %q (nil %v)",
					auth.Challenge, auth.Challenge == nil, c.challenge, c.challenge == nil)
			}
			assoc, err := UnmarshalAssocReqBody(append(make([]byte, 2), c.ies...))
			if !errors.Is(err, c.err) {
				t.Fatalf("assoc-req: err = %v, want %v", err, c.err)
			}
			if err == nil && assoc.SSID != c.ssid {
				t.Errorf("assoc-req: ssid %q, want %q", assoc.SSID, c.ssid)
			}
		})
	}
}

func TestLLCRoundTrip(t *testing.T) {
	b := EncapsulateLLC(ethernet.TypeIPv4, []byte("ip packet"))
	if b[0] != 0xaa {
		t.Fatal("LLC does not start with 0xAA (FMS known plaintext)")
	}
	typ, payload, err := DecapsulateLLC(b)
	if err != nil || typ != ethernet.TypeIPv4 || string(payload) != "ip packet" {
		t.Fatalf("typ=%v payload=%q err=%v", typ, payload, err)
	}
}

func TestLLCRejectsGarbage(t *testing.T) {
	if _, _, err := DecapsulateLLC([]byte{1, 2, 3}); err == nil {
		t.Fatal("short LLC accepted")
	}
	bad := EncapsulateLLC(ethernet.TypeIPv4, []byte("x"))
	bad[0] = 0x00
	if _, _, err := DecapsulateLLC(bad); err == nil {
		t.Fatal("non-SNAP accepted")
	}
}

func TestQuickLLCRoundTrip(t *testing.T) {
	f := func(typ uint16, payload []byte) bool {
		gt, gp, err := DecapsulateLLC(EncapsulateLLC(ethernet.EtherType(typ), payload))
		return err == nil && gt == ethernet.EtherType(typ) && bytes.Equal(gp, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Parsers must never panic on arbitrary bytes — they face the open air.
func TestQuickParsersNoPanic(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Unmarshal(b)
		_, _ = UnmarshalBeaconBody(b)
		_, _ = UnmarshalProbeReqBody(b)
		_, _ = UnmarshalAuthBody(b)
		_, _ = UnmarshalAssocReqBody(b)
		_, _ = UnmarshalAssocRespBody(b)
		_, _ = UnmarshalReasonBody(b)
		_, _, _ = DecapsulateLLC(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
