// Package auth8021x models the IEEE 802.1X port-based access control the
// paper's Section 2.2 discusses: EAPOL between a supplicant (client) and an
// authenticator (AP) backed by an authentication server, using EAP-MD5 (the
// era's baseline method).
//
// The package exists to demonstrate the paper's §2.2 verdict precisely:
// 802.1x authenticates the CLIENT to the NETWORK, but "there is no
// authentication of the network. Without this mutual authentication, there
// is no guarantee that the client connects to the desired network and thus
// cannot trust the AP it connects to." Concretely: a rogue authenticator
// that simply answers EAP-Success passes every supplicant (see
// NewAcceptAllAuthenticator and the tests), so 802.1x adds nothing against
// the paper's rogue-AP MITM.
package auth8021x

import (
	"bytes"
	"crypto/md5"
	"fmt"

	"repro/internal/dot11"
	"repro/internal/ethernet"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// EtherTypeEAPOL is the EAP-over-LAN ethertype.
const EtherTypeEAPOL ethernet.EtherType = 0x888e

// PAEGroupMAC is the port-access-entity group address supplicants send
// EAPOL-Start to.
var PAEGroupMAC = ethernet.MAC{0x01, 0x80, 0xc2, 0x00, 0x00, 0x03}

// EAPOL packet types.
const (
	eapolEAPPacket byte = 0
	eapolStart     byte = 1
	eapolLogoff    byte = 2
)

// EAP codes.
const (
	eapRequest  byte = 1
	eapResponse byte = 2
	eapSuccess  byte = 3
	eapFailure  byte = 4
)

// EAP methods.
const (
	eapTypeIdentity byte = 1
	eapTypeMD5      byte = 4
)

// eapol builds version(1)=1 | type(1) | body.
func eapol(typ byte, body []byte) []byte {
	out := make([]byte, 2+len(body))
	out[0], out[1] = 1, typ
	copy(out[2:], body)
	return out
}

// eap builds code(1) | id(1) | len(2) | [type(1) | data].
func eap(code, id, typ byte, data []byte) []byte {
	n := 4
	if code == eapRequest || code == eapResponse {
		n += 1 + len(data)
	}
	out := make([]byte, n)
	out[0], out[1] = code, id
	out[2], out[3] = byte(n>>8), byte(n)
	if n > 4 {
		out[4] = typ
		copy(out[5:], data)
	}
	return out
}

// parseEAP splits an EAP packet; typ/data are zero/nil for Success/Failure.
func parseEAP(b []byte) (code, id, typ byte, data []byte, err error) {
	if len(b) < 4 {
		return 0, 0, 0, nil, fmt.Errorf("auth8021x: short EAP packet")
	}
	n := int(b[2])<<8 | int(b[3])
	if n < 4 || n > len(b) {
		return 0, 0, 0, nil, fmt.Errorf("auth8021x: bad EAP length")
	}
	code, id = b[0], b[1]
	if n > 4 {
		typ = b[4]
		data = b[5:n]
	}
	return code, id, typ, data, nil
}

// md5Response computes the EAP-MD5 proof: MD5(id || password || challenge),
// per the CHAP construction EAP-MD5 borrows.
func md5Response(id byte, password string, challenge []byte) []byte {
	h := md5.New()
	h.Write([]byte{id})
	h.Write([]byte(password))
	h.Write(challenge)
	return h.Sum(nil)
}

// Server is the authentication backend (the RADIUS stand-in): a credential
// store that issues challenges and verifies proofs.
type Server struct {
	creds map[string]string
	rng   *sim.RNG
}

// NewServer builds a backend over a user→password map.
func NewServer(rng *sim.RNG, creds map[string]string) *Server {
	cp := make(map[string]string, len(creds))
	for u, p := range creds {
		cp[u] = p
	}
	return &Server{creds: cp, rng: rng}
}

// Challenge issues a fresh 16-byte challenge.
func (s *Server) Challenge() []byte {
	c := make([]byte, 16)
	s.rng.Bytes(c)
	return c
}

// Verify checks an EAP-MD5 proof for the identified user.
func (s *Server) Verify(identity string, id byte, challenge, proof []byte) bool {
	pw, ok := s.creds[identity]
	if !ok {
		return false
	}
	return bytes.Equal(md5Response(id, pw, challenge), proof)
}

// portState tracks one supplicant on the authenticator.
type portState struct {
	identity   string
	eapID      byte
	challenge  []byte
	authorized bool
}

// Authenticator runs the AP side of 802.1x: it owns the AP's host NIC for
// EAPOL traffic and gates the AP's distribution port per station.
type Authenticator struct {
	ap     *dot11.AP
	nic    ethernet.NIC
	server *Server
	// acceptAll makes this a rogue authenticator: every supplicant gets
	// EAP-Success without credentials being checked — the §2.2 flaw.
	acceptAll bool
	ports     map[ethernet.MAC]*portState

	// Counters.
	Successes, Failures uint64
}

// NewAuthenticator attaches 802.1x to an AP, backed by server.
func NewAuthenticator(ap *dot11.AP, server *Server) *Authenticator {
	a := &Authenticator{ap: ap, nic: ap.HostNIC(), server: server, ports: make(map[ethernet.MAC]*portState)}
	a.install()
	return a
}

// NewAcceptAllAuthenticator attaches a rogue authenticator that authorizes
// everyone. A supplicant cannot distinguish it from the real thing.
func NewAcceptAllAuthenticator(ap *dot11.AP) *Authenticator {
	a := &Authenticator{ap: ap, nic: ap.HostNIC(), acceptAll: true, ports: make(map[ethernet.MAC]*portState)}
	a.install()
	return a
}

func (a *Authenticator) install() {
	a.nic.SetReceiver(func(f ethernet.Frame) {
		if f.Type == EtherTypeEAPOL {
			a.onEAPOL(f.Src, f.Payload)
		}
	})
	a.ap.PortGate = func(src ethernet.MAC, t ethernet.EtherType) bool {
		if t == EtherTypeEAPOL {
			return true // the uncontrolled port
		}
		st, ok := a.ports[src]
		return ok && st.authorized
	}
}

// Authorized reports a station's port status.
func (a *Authenticator) Authorized(mac ethernet.MAC) bool {
	st, ok := a.ports[mac]
	return ok && st.authorized
}

func (a *Authenticator) send(dst ethernet.MAC, eapPkt []byte) {
	a.nic.SendBuf(dst, EtherTypeEAPOL, pkt.Wrap(eapol(eapolEAPPacket, eapPkt)))
}

func (a *Authenticator) onEAPOL(src ethernet.MAC, payload []byte) {
	if len(payload) < 2 || payload[0] != 1 {
		return
	}
	st := a.ports[src]
	if st == nil {
		st = &portState{}
		a.ports[src] = st
	}
	switch payload[1] {
	case eapolStart:
		st.authorized = false
		st.eapID++
		a.send(src, eap(eapRequest, st.eapID, eapTypeIdentity, nil))
	case eapolLogoff:
		st.authorized = false
	case eapolEAPPacket:
		code, id, typ, data, err := parseEAP(payload[2:])
		if err != nil || code != eapResponse || id != st.eapID {
			return
		}
		switch typ {
		case eapTypeIdentity:
			st.identity = string(data)
			if a.acceptAll {
				// The rogue doesn't bother challenging.
				st.authorized = true
				a.Successes++
				a.send(src, eap(eapSuccess, id, 0, nil))
				return
			}
			st.eapID++
			st.challenge = a.server.Challenge()
			// EAP-MD5 request data: value-size(1) || challenge.
			req := append([]byte{byte(len(st.challenge))}, st.challenge...)
			a.send(src, eap(eapRequest, st.eapID, eapTypeMD5, req))
		case eapTypeMD5:
			if a.acceptAll {
				st.authorized = true
				a.Successes++
				a.send(src, eap(eapSuccess, id, 0, nil))
				return
			}
			if len(data) < 1 || int(data[0]) > len(data)-1 {
				return
			}
			proof := data[1 : 1+data[0]]
			if st.challenge != nil && a.server.Verify(st.identity, id, st.challenge, proof) {
				st.authorized = true
				a.Successes++
				a.send(src, eap(eapSuccess, id, 0, nil))
			} else {
				a.Failures++
				a.send(src, eap(eapFailure, id, 0, nil))
			}
		}
	}
}

// Supplicant runs the client side. It wraps the station NIC: EAPOL frames
// are consumed by the supplicant, everything else flows to the receiver the
// IP stack installs. Note what it CANNOT do: verify who is asking — EAP-MD5
// authenticates only the client.
type Supplicant struct {
	nic      ethernet.NIC
	inner    ethernet.Receiver
	identity string
	password string
	// OnResult fires on EAP Success/Failure.
	OnResult func(success bool)

	authorized bool
	// Successes and Failures count completed exchanges.
	Successes, Failures uint64
}

// NewSupplicant wraps a station NIC with 802.1x. Attach the IP stack to the
// returned supplicant instead of the raw NIC.
func NewSupplicant(nic ethernet.NIC, identity, password string) *Supplicant {
	s := &Supplicant{nic: nic, identity: identity, password: password}
	nic.SetReceiver(func(f ethernet.Frame) {
		if f.Type == EtherTypeEAPOL {
			s.onEAPOL(f.Payload)
			return
		}
		if s.inner != nil {
			s.inner(f)
		}
	})
	return s
}

// Authorized reports whether the exchange succeeded.
func (s *Supplicant) Authorized() bool { return s.authorized }

// Start begins (or restarts) authentication: EAPOL-Start to the PAE group.
func (s *Supplicant) Start() {
	s.authorized = false
	s.nic.SendBuf(PAEGroupMAC, EtherTypeEAPOL, pkt.Wrap(eapol(eapolStart, nil)))
}

func (s *Supplicant) onEAPOL(payload []byte) {
	if len(payload) < 2 || payload[1] != eapolEAPPacket {
		return
	}
	code, id, typ, data, err := parseEAP(payload[2:])
	if err != nil {
		return
	}
	switch code {
	case eapRequest:
		switch typ {
		case eapTypeIdentity:
			resp := eap(eapResponse, id, eapTypeIdentity, []byte(s.identity))
			s.nic.SendBuf(PAEGroupMAC, EtherTypeEAPOL, pkt.Wrap(eapol(eapolEAPPacket, resp)))
		case eapTypeMD5:
			if len(data) < 1 || int(data[0]) > len(data)-1 {
				return
			}
			challenge := data[1 : 1+data[0]]
			proof := md5Response(id, s.password, challenge)
			body := append([]byte{byte(len(proof))}, proof...)
			resp := eap(eapResponse, id, eapTypeMD5, body)
			s.nic.SendBuf(PAEGroupMAC, EtherTypeEAPOL, pkt.Wrap(eapol(eapolEAPPacket, resp)))
		}
	case eapSuccess:
		// This is the flaw: Success is a bare, unauthenticated code. The
		// supplicant believes whoever sends it.
		s.authorized = true
		s.Successes++
		if s.OnResult != nil {
			s.OnResult(true)
		}
	case eapFailure:
		s.authorized = false
		s.Failures++
		if s.OnResult != nil {
			s.OnResult(false)
		}
	}
}

// --- ethernet.NIC passthrough so the IP stack can sit on top ---

// HWAddr implements ethernet.NIC.
func (s *Supplicant) HWAddr() ethernet.MAC { return s.nic.HWAddr() }

// MTU implements ethernet.NIC.
func (s *Supplicant) MTU() int { return s.nic.MTU() }

// SetReceiver implements ethernet.NIC (the IP stack's receiver).
func (s *Supplicant) SetReceiver(r ethernet.Receiver) { s.inner = r }

// SendBuf implements ethernet.NIC, passing ownership straight through.
func (s *Supplicant) SendBuf(dst ethernet.MAC, t ethernet.EtherType, pb *pkt.Buf) {
	s.nic.SendBuf(dst, t, pb)
}

var _ ethernet.NIC = (*Supplicant)(nil)
