// Package dot11 implements the 802.11 MAC layer of the simulation: frame
// formats, beaconing, scanning, authentication (open and WEP shared-key),
// association, deauthentication, WEP encapsulation of data frames, and
// sequence-control numbering.
//
// Both honest devices and the attacker's kit are built from the same types:
// an AP is an AP whether its operator is the CORP admin or the laptop in the
// next seat — which is precisely the paper's point: nothing in 802.11b lets
// a client tell them apart.
package dot11

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ethernet"
)

// Type is the 802.11 frame type.
type Type byte

// Frame types.
const (
	TypeManagement Type = 0
	TypeControl    Type = 1
	TypeData       Type = 2
)

// Subtype is the frame subtype within a type.
type Subtype byte

// Management subtypes used in this simulation.
const (
	SubtypeAssocReq  Subtype = 0
	SubtypeAssocResp Subtype = 1
	SubtypeProbeReq  Subtype = 4
	SubtypeProbeResp Subtype = 5
	SubtypeBeacon    Subtype = 8
	SubtypeDisassoc  Subtype = 10
	SubtypeAuth      Subtype = 11
	SubtypeDeauth    Subtype = 12
	// SubtypeDataFrame is the only data subtype modelled.
	SubtypeDataFrame Subtype = 0
	// SubtypeAck is the control acknowledgement frame.
	SubtypeAck Subtype = 13
)

// Frame is a parsed 802.11 MAC frame.
//
// Address semantics (infrastructure mode):
//
//	ToDS=1 (station → AP):  Addr1=BSSID, Addr2=transmitter (STA), Addr3=final destination
//	FromDS=1 (AP → station): Addr1=receiver (STA), Addr2=BSSID, Addr3=original source
//	management frames:       Addr1=destination, Addr2=source, Addr3=BSSID
type Frame struct {
	Type      Type
	Subtype   Subtype
	ToDS      bool
	FromDS    bool
	Retry     bool
	Protected bool // body is WEP-encapsulated
	Addr1     ethernet.MAC
	Addr2     ethernet.MAC
	Addr3     ethernet.MAC
	Seq       uint16 // 12-bit sequence number
	Frag      uint8  // 4-bit fragment number
	Body      []byte
}

// headerLen is the serialised MAC header size (no QoS, no Addr4).
const headerLen = 2 + 2 + 6 + 6 + 6 + 2

// Marshal serialises the frame into an exactly-sized slice (tests assert
// zero spare capacity).
func (f *Frame) Marshal() []byte {
	b := make([]byte, headerLen+len(f.Body))
	f.putHeader(b)
	copy(b[headerLen:], f.Body)
	return b
}

// putHeader writes the 24-byte MAC header into b, which must hold at least
// headerLen bytes. The zero-copy transmit path pushes the header into packet
// headroom with this; Marshal shares it.
func (f *Frame) putHeader(b []byte) {
	fc0 := byte(f.Type)<<2 | byte(f.Subtype)<<4 // version 0
	var fc1 byte
	if f.ToDS {
		fc1 |= 0x01
	}
	if f.FromDS {
		fc1 |= 0x02
	}
	if f.Retry {
		fc1 |= 0x08
	}
	if f.Protected {
		fc1 |= 0x40
	}
	b[0], b[1] = fc0, fc1
	b[2], b[3] = 0, 0 // duration: unused
	copy(b[4:10], f.Addr1[:])
	copy(b[10:16], f.Addr2[:])
	copy(b[16:22], f.Addr3[:])
	binary.LittleEndian.PutUint16(b[22:24], f.Seq<<4|uint16(f.Frag&0x0f))
}

// ErrShortFrame reports a buffer too small to hold a MAC header.
var ErrShortFrame = errors.New("dot11: short frame")

// Unmarshal parses a serialised frame. Body aliases b.
func Unmarshal(b []byte) (Frame, error) {
	if len(b) < headerLen {
		return Frame{}, ErrShortFrame
	}
	var f Frame
	f.Type = Type(b[0] >> 2 & 0x3)
	f.Subtype = Subtype(b[0] >> 4)
	f.ToDS = b[1]&0x01 != 0
	f.FromDS = b[1]&0x02 != 0
	f.Retry = b[1]&0x08 != 0
	f.Protected = b[1]&0x40 != 0
	copy(f.Addr1[:], b[4:10])
	copy(f.Addr2[:], b[10:16])
	copy(f.Addr3[:], b[16:22])
	sc := binary.LittleEndian.Uint16(b[22:24])
	f.Seq = sc >> 4
	f.Frag = uint8(sc & 0x0f)
	f.Body = b[headerLen:]
	return f, nil
}

// WireLen reports the serialised length.
func (f *Frame) WireLen() int { return headerLen + len(f.Body) }

// String gives a compact trace representation.
func (f *Frame) String() string {
	kind := "?"
	switch f.Type {
	case TypeManagement:
		switch f.Subtype {
		case SubtypeBeacon:
			kind = "beacon"
		case SubtypeProbeReq:
			kind = "probe-req"
		case SubtypeProbeResp:
			kind = "probe-resp"
		case SubtypeAuth:
			kind = "auth"
		case SubtypeAssocReq:
			kind = "assoc-req"
		case SubtypeAssocResp:
			kind = "assoc-resp"
		case SubtypeDeauth:
			kind = "deauth"
		case SubtypeDisassoc:
			kind = "disassoc"
		}
	case TypeData:
		kind = "data"
	}
	return fmt.Sprintf("%s seq=%d a1=%s a2=%s a3=%s len=%d", kind, f.Seq, f.Addr1, f.Addr2, f.Addr3, len(f.Body))
}

// --- Management frame bodies ---

// Capability bits advertised in beacons and probe responses.
const (
	CapESS     uint16 = 0x0001 // infrastructure network
	CapPrivacy uint16 = 0x0010 // WEP required
)

// BeaconBody is the body of beacon and probe-response frames.
type BeaconBody struct {
	Timestamp      uint64 // µs since AP start (TSF)
	BeaconInterval uint16 // in TU (1024 µs)
	Capability     uint16
	SSID           string
	Channel        byte
}

// beaconFixedLen is the fixed part of a beacon body: timestamp, interval and
// capability, before the information elements.
const beaconFixedLen = 12

// wireLen reports the serialised body length.
func (b *BeaconBody) wireLen() int { return beaconFixedLen + 2 + len(b.SSID) + 3 }

// put serialises the body into out, which must be exactly wireLen bytes;
// the AP writes beacons straight into the pooled frame buffer with it.
func (b *BeaconBody) put(out []byte) {
	if len(b.SSID) > 255 {
		panic("dot11: IE too long")
	}
	binary.LittleEndian.PutUint64(out[0:8], b.Timestamp)
	binary.LittleEndian.PutUint16(out[8:10], b.BeaconInterval)
	binary.LittleEndian.PutUint16(out[10:12], b.Capability)
	out[12], out[13] = ieSSID, byte(len(b.SSID))
	n := 14 + copy(out[14:], b.SSID)
	out[n], out[n+1], out[n+2] = ieDSParam, 1, b.Channel
}

// Marshal serialises the body with its information elements.
func (b *BeaconBody) Marshal() []byte {
	out := make([]byte, b.wireLen())
	b.put(out)
	return out
}

// BeaconView is a beacon or probe-response body parsed in place: SSID
// aliases the frame, so reading a beacon allocates nothing. Receivers that
// only compare the SSID use the view and copy the SSID out only to keep it.
type BeaconView struct {
	Timestamp      uint64
	BeaconInterval uint16
	Capability     uint16
	SSID           []byte
	Channel        byte
}

// ParseBeacon parses a beacon/probe-response body without copying it.
func ParseBeacon(p []byte) (BeaconView, error) {
	var v BeaconView
	if len(p) < beaconFixedLen {
		return v, errors.New("dot11: short beacon body")
	}
	v.Timestamp = binary.LittleEndian.Uint64(p[0:8])
	v.BeaconInterval = binary.LittleEndian.Uint16(p[8:10])
	v.Capability = binary.LittleEndian.Uint16(p[10:12])
	ies, err := walkIEs(p[beaconFixedLen:])
	if err != nil {
		return v, err
	}
	v.SSID = ies.ssid
	if len(ies.ds) == 1 {
		v.Channel = ies.ds[0]
	}
	return v, nil
}

// UnmarshalBeaconBody parses a beacon/probe-response body, copying the
// SSID out of p.
func UnmarshalBeaconBody(p []byte) (BeaconBody, error) {
	v, err := ParseBeacon(p)
	return BeaconBody{
		Timestamp:      v.Timestamp,
		BeaconInterval: v.BeaconInterval,
		Capability:     v.Capability,
		SSID:           string(v.SSID),
		Channel:        v.Channel,
	}, err
}

// ProbeReqBody is the body of a probe request: the SSID being sought
// (empty for a wildcard probe).
type ProbeReqBody struct{ SSID string }

// Marshal serialises the probe request body into an exactly-sized slice.
func (b *ProbeReqBody) Marshal() []byte {
	return appendIE(make([]byte, 0, 2+len(b.SSID)), ieSSID, []byte(b.SSID))
}

// UnmarshalProbeReqBody parses a probe request body.
func UnmarshalProbeReqBody(p []byte) (ProbeReqBody, error) {
	ies, err := walkIEs(p)
	if err != nil {
		return ProbeReqBody{}, err
	}
	return ProbeReqBody{SSID: string(ies.ssid)}, nil
}

// Authentication algorithm numbers.
const (
	AuthOpen      uint16 = 0
	AuthSharedKey uint16 = 1
)

// Authentication status codes (also used by assoc responses).
const (
	StatusSuccess         uint16 = 0
	StatusUnspecified     uint16 = 1
	StatusAuthAlgMismatch uint16 = 13
	StatusChallengeFail   uint16 = 15
	StatusUnauthorized    uint16 = 16
)

// AuthBody is the body of authentication frames. The shared-key handshake
// runs four messages: (1) request, (2) clear challenge, (3) WEP-encrypted
// challenge (whole body sealed), (4) result.
type AuthBody struct {
	Algorithm uint16
	Seq       uint16
	Status    uint16
	Challenge []byte
}

// Marshal serialises the auth body.
func (b *AuthBody) Marshal() []byte {
	out := make([]byte, 6, 6+2+len(b.Challenge))
	binary.LittleEndian.PutUint16(out[0:2], b.Algorithm)
	binary.LittleEndian.PutUint16(out[2:4], b.Seq)
	binary.LittleEndian.PutUint16(out[4:6], b.Status)
	if b.Challenge != nil {
		out = appendIE(out, ieChallenge, b.Challenge)
	}
	return out
}

// UnmarshalAuthBody parses an auth body.
func UnmarshalAuthBody(p []byte) (AuthBody, error) {
	var b AuthBody
	if len(p) < 6 {
		return b, errors.New("dot11: short auth body")
	}
	b.Algorithm = binary.LittleEndian.Uint16(p[0:2])
	b.Seq = binary.LittleEndian.Uint16(p[2:4])
	b.Status = binary.LittleEndian.Uint16(p[4:6])
	ies, err := walkIEs(p[6:])
	if err != nil {
		return b, err
	}
	b.Challenge = ies.challenge
	return b, nil
}

// AssocReqBody is the body of an association request.
type AssocReqBody struct {
	Capability uint16
	SSID       string
}

// Marshal serialises the assoc request body.
func (b *AssocReqBody) Marshal() []byte {
	out := make([]byte, 2, 2+2+len(b.SSID))
	binary.LittleEndian.PutUint16(out[0:2], b.Capability)
	return appendIE(out, ieSSID, []byte(b.SSID))
}

// UnmarshalAssocReqBody parses an assoc request body.
func UnmarshalAssocReqBody(p []byte) (AssocReqBody, error) {
	var b AssocReqBody
	if len(p) < 2 {
		return b, errors.New("dot11: short assoc-req body")
	}
	b.Capability = binary.LittleEndian.Uint16(p[0:2])
	ies, err := walkIEs(p[2:])
	if err != nil {
		return b, err
	}
	b.SSID = string(ies.ssid)
	return b, nil
}

// AssocRespBody is the body of an association response.
type AssocRespBody struct {
	Capability uint16
	Status     uint16
	AID        uint16
}

// Marshal serialises the assoc response body.
func (b *AssocRespBody) Marshal() []byte {
	out := make([]byte, 6)
	binary.LittleEndian.PutUint16(out[0:2], b.Capability)
	binary.LittleEndian.PutUint16(out[2:4], b.Status)
	binary.LittleEndian.PutUint16(out[4:6], b.AID)
	return out
}

// UnmarshalAssocRespBody parses an assoc response body.
func UnmarshalAssocRespBody(p []byte) (AssocRespBody, error) {
	var b AssocRespBody
	if len(p) < 6 {
		return b, errors.New("dot11: short assoc-resp body")
	}
	b.Capability = binary.LittleEndian.Uint16(p[0:2])
	b.Status = binary.LittleEndian.Uint16(p[2:4])
	b.AID = binary.LittleEndian.Uint16(p[4:6])
	return b, nil
}

// Deauth/disassoc reason codes.
const (
	ReasonUnspecified    uint16 = 1
	ReasonAuthExpired    uint16 = 2
	ReasonDeauthLeaving  uint16 = 3
	ReasonInactivity     uint16 = 4
	ReasonClass3NotAssoc uint16 = 7
	ReasonNotAuthorized  uint16 = 9 // used by the MAC ACL
)

// ReasonBody is the body of deauth and disassoc frames.
type ReasonBody struct{ Reason uint16 }

// Marshal serialises the reason body.
func (b *ReasonBody) Marshal() []byte {
	out := make([]byte, 2)
	binary.LittleEndian.PutUint16(out, b.Reason)
	return out
}

// UnmarshalReasonBody parses a deauth/disassoc body.
func UnmarshalReasonBody(p []byte) (ReasonBody, error) {
	if len(p) < 2 {
		return ReasonBody{}, errors.New("dot11: short reason body")
	}
	return ReasonBody{Reason: binary.LittleEndian.Uint16(p)}, nil
}

// --- Information elements ---

const (
	ieSSID      byte = 0
	ieDSParam   byte = 3
	ieChallenge byte = 16
)

func appendIE(out []byte, id byte, val []byte) []byte {
	if len(val) > 255 {
		panic("dot11: IE too long")
	}
	out = append(out, id, byte(len(val)))
	return append(out, val...)
}

// Errors from the information-element walk.
var (
	errIEHeader = errors.New("dot11: truncated IE header")
	errIEBody   = errors.New("dot11: truncated IE body")
)

// ieValues holds the values of the elements the body parsers read. Each
// aliases the walked list and is nil when its element is absent; a present
// element, even an empty one, is a non-nil slice of the list.
type ieValues struct {
	ssid, ds, challenge []byte
}

// walkIEs walks an information-element list in place. A repeated element
// keeps its last value, and unknown elements are skipped. Any truncated
// header or body fails the whole list.
func walkIEs(p []byte) (ieValues, error) {
	var v ieValues
	for len(p) > 0 {
		if len(p) < 2 {
			return ieValues{}, errIEHeader
		}
		id, n := p[0], int(p[1])
		if len(p) < 2+n {
			return ieValues{}, errIEBody
		}
		switch val := p[2 : 2+n]; id {
		case ieSSID:
			v.ssid = val
		case ieDSParam:
			v.ds = val
		case ieChallenge:
			v.challenge = val
		}
		p = p[2+n:]
	}
	return v, nil
}

// --- LLC/SNAP encapsulation ---

// llcSNAPHeader is the 802.2 LLC + SNAP prefix carried by every data frame.
// Its first byte (0xAA) is the known plaintext the FMS attack relies on.
var llcSNAPHeader = []byte{0xaa, 0xaa, 0x03, 0x00, 0x00, 0x00}

// LLCLen is the LLC/SNAP header length including the EtherType.
const LLCLen = 8

// EncapsulateLLC wraps an EtherType and payload in LLC/SNAP.
func EncapsulateLLC(t ethernet.EtherType, payload []byte) []byte {
	out := make([]byte, LLCLen+len(payload))
	putLLC(out, t)
	copy(out[LLCLen:], payload)
	return out
}

// putLLC writes the LLC/SNAP header into the first LLCLen bytes of b; the
// zero-copy path pushes it into packet headroom.
func putLLC(b []byte, t ethernet.EtherType) {
	copy(b, llcSNAPHeader)
	b[6] = byte(t >> 8)
	b[7] = byte(t)
}

// DecapsulateLLC unwraps an LLC/SNAP payload.
func DecapsulateLLC(b []byte) (ethernet.EtherType, []byte, error) {
	if len(b) < LLCLen {
		return 0, nil, errors.New("dot11: short LLC payload")
	}
	for i, v := range llcSNAPHeader {
		if b[i] != v {
			return 0, nil, fmt.Errorf("dot11: not LLC/SNAP (byte %d = %#x)", i, b[i])
		}
	}
	t := ethernet.EtherType(uint16(b[6])<<8 | uint16(b[7]))
	return t, b[LLCLen:], nil
}
