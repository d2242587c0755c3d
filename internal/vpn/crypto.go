// Package vpn implements the paper's defense (Section 5): a client tunnels
// ALL traffic through an encrypted, mutually authenticated tunnel to a
// trusted endpoint on a secure wired network, so nothing the rogue AP or a
// hostile hotspot does to the wireless segment can read or modify the
// client's traffic.
//
// The tunnel meets the paper's four VPN requirements:
//
//  1. provided by a trustworthy entity — the endpoint is chosen by
//     configuration, not discovered on the hostile network;
//  2. authentication information preestablished — a pre-shared key
//     exchanged out of band (§5.2: "arrangements for the VPN ... must take
//     place out of band");
//  3. endpoint in a secure wired network — topology builders place it
//     behind the wired distribution network;
//  4. handles all client traffic — the client installs OpenVPN-style
//     0.0.0.0/1 + 128.0.0.0/1 routes through the tunnel device (a
//     split-tunnel mode exists only as the E3 ablation showing why partial
//     tunnelling fails).
//
// Cryptography: HMAC-SHA256 mutual authentication and key derivation from
// the PSK, AES-CTR record encryption, truncated HMAC-SHA256 record
// integrity, and a 64-entry sliding anti-replay window. The paper's tested
// instantiation was PPP over SSH; both its TCP carrier (with the §5.3
// TCP-over-TCP retransmission pathology) and a UDP carrier are provided.
package vpn

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
)

// Message types on the control/data channel.
const (
	msgClientHello byte = 1
	msgServerHello byte = 2
	msgClientAuth  byte = 3
	msgAssignIP    byte = 4
	msgData        byte = 5
	// msgKeepalive carries a sealed empty record in either direction: the
	// client probes liveness, the server echoes. Sealing (rather than a bare
	// ping) means a rogue on the path cannot forge "the peer is alive".
	msgKeepalive byte = 6
)

// MsgData and MsgKeepalive expose the sealed-record frame types: everything
// an on-path observer without keys (E13's hostile relay) can classify from
// the carrier framing, and therefore all it can selectively target.
const (
	MsgData      = msgData
	MsgKeepalive = msgKeepalive
)

// nonceLen is the handshake nonce size.
const nonceLen = 16

// macLen is the truncated record MAC size.
const macLen = 16

// sessionKeys holds the directional keys derived from the PSK and nonces.
type sessionKeys struct {
	encC2S, encS2C [16]byte
	macC2S, macS2C [32]byte
}

// deriveKeys computes the session keys. Both sides derive identically.
func deriveKeys(psk []byte, nonceC, nonceS []byte) sessionKeys {
	kdf := func(label string) []byte {
		m := hmac.New(sha256.New, psk)
		m.Write([]byte(label))
		m.Write(nonceC)
		m.Write(nonceS)
		return m.Sum(nil)
	}
	var k sessionKeys
	copy(k.encC2S[:], kdf("enc client->server"))
	copy(k.encS2C[:], kdf("enc server->client"))
	copy(k.macC2S[:], kdf("mac client->server"))
	copy(k.macS2C[:], kdf("mac server->client"))
	return k
}

// authTag computes the handshake authentication proof for a role.
func authTag(psk []byte, role string, nonceC, nonceS []byte) []byte {
	m := hmac.New(sha256.New, psk)
	m.Write([]byte(role))
	m.Write(nonceC)
	m.Write(nonceS)
	return m.Sum(nil)
}

// recordMAC is one direction's record authenticator: the HMAC is keyed once
// and Reset per record, and Sum writes into sum, so a record costs no key
// schedule and no digest allocation.
type recordMAC struct {
	mac hash.Hash
	sum [sha256.Size]byte
}

func newRecordMAC(key []byte) recordMAC {
	return recordMAC{mac: hmac.New(sha256.New, key)}
}

// tag returns the truncated MAC of p. It aliases the recordMAC's own
// buffer, so it is valid until the next call.
func (r *recordMAC) tag(p []byte) []byte {
	r.mac.Reset()
	r.mac.Write(p)
	return r.mac.Sum(r.sum[:0])[:macLen]
}

// sealer encrypts and authenticates data records in one direction.
type sealer struct {
	block cipher.Block
	mac   recordMAC
	seq   uint64
}

func newSealer(encKey [16]byte, macKey []byte) *sealer {
	block, err := aes.NewCipher(encKey[:])
	if err != nil {
		panic(err) // fixed key size; cannot fail
	}
	return &sealer{block: block, mac: newRecordMAC(macKey)}
}

// seal produces seq(8) || ciphertext || mac(16).
func (s *sealer) seal(plaintext []byte) []byte {
	s.seq++
	out := make([]byte, 8+len(plaintext)+macLen)
	binary.BigEndian.PutUint64(out[0:8], s.seq)
	var iv [16]byte
	copy(iv[:8], out[0:8])
	cipher.NewCTR(s.block, iv[:]).XORKeyStream(out[8:8+len(plaintext)], plaintext)
	copy(out[8+len(plaintext):], s.mac.tag(out[:8+len(plaintext)]))
	return out
}

// Errors from record opening.
var (
	ErrRecordShort = errors.New("vpn: record too short")
	ErrRecordMAC   = errors.New("vpn: record MAC verification failed")
	ErrReplay      = errors.New("vpn: replayed or stale record")
)

// opener verifies and decrypts records in one direction with anti-replay.
type opener struct {
	block cipher.Block
	mac   recordMAC
	// Sliding anti-replay window.
	maxSeq uint64
	window uint64

	// MACFailures counts tamper detections — experiment E3's direct
	// evidence that the attack is noticed, not just prevented.
	MACFailures uint64
	Replays     uint64
}

func newOpener(encKey [16]byte, macKey []byte) *opener {
	block, err := aes.NewCipher(encKey[:])
	if err != nil {
		panic(err)
	}
	return &opener{block: block, mac: newRecordMAC(macKey)}
}

// open verifies and decrypts a record produced by seal.
func (o *opener) open(record []byte) ([]byte, error) {
	if len(record) < 8+macLen {
		return nil, ErrRecordShort
	}
	body := record[:len(record)-macLen]
	if !hmac.Equal(o.mac.tag(body), record[len(record)-macLen:]) {
		o.MACFailures++
		return nil, ErrRecordMAC
	}
	seq := binary.BigEndian.Uint64(body[0:8])
	if !o.checkReplay(seq) {
		o.Replays++
		return nil, ErrReplay
	}
	var iv [16]byte
	copy(iv[:8], body[0:8])
	plaintext := make([]byte, len(body)-8)
	cipher.NewCTR(o.block, iv[:]).XORKeyStream(plaintext, body[8:])
	return plaintext, nil
}

// checkReplay implements a 64-entry sliding window, updating state on
// acceptance.
func (o *opener) checkReplay(seq uint64) bool {
	switch {
	case seq == 0:
		return false
	case seq > o.maxSeq:
		shift := seq - o.maxSeq
		if shift >= 64 {
			o.window = 0
		} else {
			o.window <<= shift
		}
		o.window |= 1
		o.maxSeq = seq
		return true
	case o.maxSeq-seq >= 64:
		return false // too old
	default:
		bit := uint64(1) << (o.maxSeq - seq)
		if o.window&bit != 0 {
			return false // seen
		}
		o.window |= bit
		return true
	}
}
