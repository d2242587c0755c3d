package vpn

import (
	"bytes"

	"repro/internal/sim"
)

// This file is the shared peer machinery extracted from the end-to-end
// Client/Server pair so the multi-hop overlay (overlay.go) runs the SAME
// handshake, rekey, keepalive/DPD, and reconnect-backoff logic per hop that
// the tunnel runs end to end:
//
//   - backoff: the seeded exponential redial ladder;
//   - dpd: the dead-peer-detection probe/silence loop;
//   - handshakeState + the initiator helpers: the PSK mutual-auth transcript
//     (idempotent hellos, rekey detection) and directional key installation;
//   - peer: the per-link state machine overlay nodes attach to a carrier.
//
// Client and Server delegate to the first three, so a fix to the handshake
// or the healing logic lands in every hop of a relay chain at once.

// backoff is the exponential reconnect ladder shared by the end-to-end
// client and overlay links: base·2ⁿ capped at max, plus seeded jitter of up
// to base/2 so a fleet of reconnecting peers does not thunder back in
// lockstep.
type backoff struct {
	base, max sim.Time
	n         int
}

// next returns the delay for the coming attempt and advances the ladder.
func (b *backoff) next(rng *sim.RNG) sim.Time {
	d := b.base
	for i := 0; i < b.n && d < b.max; i++ {
		d *= 2
	}
	if d > b.max {
		d = b.max
	}
	if b.n < 20 {
		b.n++
	}
	return d + rng.Jitter(b.base/2)
}

// reset re-arms the ladder after a successful handshake.
func (b *backoff) reset() { b.n = 0 }

// dpd is the dead-peer-detection loop shared by the end-to-end client and
// overlay links: one sealed probe per interval, and the peer is declared
// dead after timeout of authenticated silence. The owner calls bump whenever
// a record authenticates; a zero interval disables the whole loop.
type dpd struct {
	k        *sim.Kernel
	interval sim.Time
	timeout  sim.Time
	lastRx   sim.Time
	timer    sim.Timer

	live    func() bool // still worth probing?
	probe   func()      // send one sealed probe (nil on the passive side)
	expired func()      // peer declared dead
}

// bump records authenticated traffic from the peer.
func (d *dpd) bump() { d.lastRx = d.k.Now() }

// start (re)arms the loop.
func (d *dpd) start() {
	if d.interval <= 0 {
		return
	}
	d.stop()
	d.lastRx = d.k.Now()
	d.tick()
}

// stop cancels the pending probe timer.
func (d *dpd) stop() {
	d.timer.Cancel()
}

func (d *dpd) tick() {
	d.timer = d.k.After(d.interval, func() {
		if !d.live() {
			return
		}
		if d.k.Now()-d.lastRx > d.timeout {
			d.expired()
			return
		}
		if d.probe != nil {
			d.probe()
		}
		d.tick()
	})
}

// splitServerHello splits a server-hello body into nonce and transcript
// proof. ok is false for a malformed body (which callers silently ignore, as
// distinct from a proof that fails verification).
func splitServerHello(body []byte) (nonceS, proof []byte, ok bool) {
	if len(body) != nonceLen+32 {
		return nil, nil, false
	}
	return body[:nonceLen], body[nonceLen:], true
}

// initiatorKeys derives and installs the record keys as seen from the side
// that sent the hello.
func initiatorKeys(psk, nonceC, nonceS []byte) (*sealer, *opener) {
	keys := deriveKeys(psk, nonceC, nonceS)
	return newSealer(keys.encC2S, keys.macC2S[:]), newOpener(keys.encS2C, keys.macS2C[:])
}

// responderKeys derives and installs the record keys as seen from the side
// that received the hello.
func responderKeys(psk, nonceC, nonceS []byte) (*sealer, *opener) {
	keys := deriveKeys(psk, nonceC, nonceS)
	return newSealer(keys.encS2C, keys.macS2C[:]), newOpener(keys.encC2S, keys.macC2S[:])
}

// handshakeState is the responder half of the PSK mutual-auth handshake,
// shared by the end-to-end Server and overlay links: idempotent hello
// handling (a retransmitted hello must get the SAME server nonce, or an
// in-flight client auth would verify against the wrong transcript), rekey
// detection (a fresh client nonce kills the old transcript and its record
// keys), and proof verification.
type handshakeState struct {
	nonceC, nonceS []byte
	authed         bool
}

// onHello processes a client-hello body and returns the server-hello
// response. rekeyed reports that an authenticated transcript was replaced by
// a client-initiated rekey; ok is false for a malformed hello.
func (h *handshakeState) onHello(k *sim.Kernel, psk, body []byte) (resp []byte, rekeyed, ok bool) {
	if len(body) != nonceLen {
		return nil, false, false
	}
	if h.nonceS == nil || !bytes.Equal(h.nonceC, body) {
		if h.authed {
			h.authed = false
			rekeyed = true
		}
		h.nonceC = append([]byte(nil), body...)
		h.nonceS = make([]byte, nonceLen)
		k.RNG().Bytes(h.nonceS)
	}
	resp = append(append([]byte(nil), h.nonceS...),
		authTag(psk, "server", h.nonceC, h.nonceS)...)
	return resp, rekeyed, true
}

// authResult classifies a client-auth proof.
type authResult int

const (
	// authIgnore: no transcript to verify against (out-of-order message).
	authIgnore authResult = iota
	// authBad: the proof fails verification — not our peer.
	authBad
	// authDup: a valid proof for an already-authenticated transcript (a
	// carrier retransmit, not a rekey).
	authDup
	// authOK: the transcript is newly authenticated.
	authOK
)

// onAuth verifies the client's transcript proof, marking the transcript
// authenticated on authOK.
func (h *handshakeState) onAuth(psk, body []byte) authResult {
	if h.nonceC == nil || h.nonceS == nil {
		return authIgnore
	}
	if !bytes.Equal(body, authTag(psk, "client", h.nonceC, h.nonceS)) {
		return authBad
	}
	if h.authed {
		return authDup
	}
	h.authed = true
	return authOK
}

// Every overlay link's liveness and healing. Snappy link healing (1 s
// probes, 3 s silence budget, 500 ms–8 s backoff) keeps relay failover well
// inside the end-to-end tunnel's DPD budget. The links always need
// liveness: a partitioned relay produces silence, not a TCP reset.
const (
	linkKeepalive        = sim.Second
	linkPeerTimeout      = 3 * linkKeepalive
	linkHandshakeTimeout = 2 * sim.Second
	linkBackoffBase      = 500 * sim.Millisecond
	linkBackoffMax       = 8 * sim.Second
)

// peer is one overlay link's state machine: the PSK handshake (as initiator
// on the dialing side, responder on the listening side), sealed record
// transport, keepalive/DPD liveness, and — on the dialing side — the
// seeded-backoff redial loop. It is carrier-agnostic: the owner wires
// send/abort to a transport and feeds received messages into handleMsg.
type peer struct {
	k      *sim.Kernel
	psk    []byte
	dialer bool

	state  clientState
	nonceC []byte         // initiator transcript
	hs     handshakeState // responder transcript
	seal   *sealer
	open   *opener
	rx     frameStream

	send    func(msg []byte)
	abort   func()
	timeout sim.Timer

	ka  dpd
	rng *sim.RNG
	bo  backoff
	// gen is the carrier generation: every replacement carrier bumps it, and
	// callbacks from an orphaned carrier compare against it and do nothing —
	// a stale hop from a pre-failover chain can never deliver.
	gen int

	onUp    func()
	onFrame func(typ byte, body []byte)
	onDown  func() // link died after being up
	redial  func() // dialing side: build a replacement carrier

	// Counters.
	KeepalivesSent uint64
	PeerTimeouts   uint64
	Reconnects     uint64
}

// newPeer builds a link state machine. The owner must set send/abort (and,
// on the dialing side, redial) before the carrier delivers anything.
func newPeer(k *sim.Kernel, psk []byte, dialer bool) *peer {
	p := &peer{k: k, psk: psk, dialer: dialer}
	p.bo = backoff{base: linkBackoffBase, max: linkBackoffMax}
	p.ka = dpd{
		k: k, interval: linkKeepalive, timeout: linkPeerTimeout,
		live:    func() bool { return p.state == stateUp },
		expired: func() { p.peerDead() },
	}
	if dialer {
		// Only the dialing side probes; the responder echoes, and its own
		// DPD expires on probe silence.
		p.ka.probe = func() {
			p.KeepalivesSent++
			p.send(frame(msgKeepalive, p.seal.seal(nil)))
		}
	}
	return p
}

// begin starts the handshake (dialing side, once the carrier connects).
func (p *peer) begin() {
	p.state = stateHello
	p.nonceC = make([]byte, nonceLen)
	p.k.RNG().Bytes(p.nonceC)
	p.send(frame(msgClientHello, p.nonceC))
}

// armTimeout bounds the handshake. On the dialing side expiry drops the
// carrier and re-enters the backoff ladder — an overlay link has no terminal
// failure, the chain may heal arbitrarily later. On the responding side the
// dialer owns recovery, so a half-open inbound link just dies.
func (p *peer) armTimeout() {
	gen := p.gen
	p.timeout = p.k.After(linkHandshakeTimeout, func() {
		if gen != p.gen || p.state == stateUp || p.state == stateDown {
			return
		}
		if !p.dialer {
			p.peerDead()
			return
		}
		p.state = stateIdle
		p.gen++
		if p.abort != nil {
			p.abort()
		}
		p.retry()
	})
}

// retry arms the next redial on the shared backoff ladder.
func (p *peer) retry() {
	if p.state == stateDown || p.redial == nil {
		return
	}
	p.timeout.Cancel()
	if p.rng == nil {
		p.rng = p.k.RNG().Fork()
	}
	d := p.bo.next(p.rng)
	p.k.After(d, func() {
		if p.state != stateIdle {
			return
		}
		p.Reconnects++
		p.redial()
	})
}

// peerDead tears the link down: DPD expiry, or carrier death under an
// established link. The dialing side re-enters the redial ladder; the
// responding side goes terminal (its dialer owns recovery and will arrive
// on a fresh carrier).
func (p *peer) peerDead() {
	p.PeerTimeouts++
	p.state = stateIdle
	p.ka.stop()
	p.timeout.Cancel()
	p.gen++ // orphan the carrier: its late callbacks are ignored
	if p.abort != nil {
		p.abort()
	}
	if !p.dialer {
		p.state = stateDown
	}
	if p.onDown != nil {
		p.onDown()
	}
	if p.dialer {
		p.retry()
	}
}

// up completes the handshake on either side.
func (p *peer) up() {
	p.timeout.Cancel()
	p.state = stateUp
	p.bo.reset()
	p.ka.start()
	if p.onUp != nil {
		p.onUp()
	}
}

// handleMsg advances the link state machine on one carrier message.
func (p *peer) handleMsg(msg []byte) {
	if len(msg) == 0 {
		return
	}
	typ, body := msg[0], msg[1:]
	switch typ {
	case msgClientHello:
		if p.dialer {
			return
		}
		resp, _, ok := p.hs.onHello(p.k, p.psk, body)
		if !ok {
			return
		}
		p.send(frame(msgServerHello, resp))
	case msgServerHello:
		if !p.dialer || p.state != stateHello {
			return
		}
		nonceS, proof, ok := splitServerHello(body)
		if !ok {
			return
		}
		if !bytes.Equal(proof, authTag(p.psk, "server", p.nonceC, nonceS)) {
			// Whatever answered is not our neighbour. Drop the carrier and
			// back off — identical handling to a dead hop.
			p.state = stateIdle
			p.gen++
			if p.abort != nil {
				p.abort()
			}
			p.retry()
			return
		}
		p.seal, p.open = initiatorKeys(p.psk, p.nonceC, nonceS)
		p.send(frame(msgClientAuth, authTag(p.psk, "client", p.nonceC, nonceS)))
		// Optimistically up: if the responder rejects the proof it aborts
		// the carrier, which lands us back in the redial ladder.
		p.up()
	case msgClientAuth:
		if p.dialer {
			return
		}
		switch p.hs.onAuth(p.psk, body) {
		case authOK:
			p.seal, p.open = responderKeys(p.psk, p.hs.nonceC, p.hs.nonceS)
			p.up()
		case authBad:
			// Unauthenticated dialer: kill the carrier.
			p.state = stateDown
			if p.abort != nil {
				p.abort()
			}
		}
	case msgData:
		if p.state != stateUp {
			return
		}
		plain, err := p.open.open(body)
		if err != nil || len(plain) == 0 {
			return
		}
		p.ka.bump()
		if p.onFrame != nil {
			p.onFrame(plain[0], plain[1:])
		}
	case msgKeepalive:
		if p.state != stateUp || p.open == nil {
			return
		}
		if _, err := p.open.open(body); err != nil {
			return
		}
		p.ka.bump()
		if !p.dialer {
			p.send(frame(msgKeepalive, p.seal.seal(nil)))
		}
	}
}

// sendFrame seals one overlay frame (type + body) onto an established link.
func (p *peer) sendFrame(typ byte, body []byte) {
	if p.state != stateUp {
		return
	}
	buf := make([]byte, 1+len(body))
	buf[0] = typ
	copy(buf[1:], body)
	p.send(frame(msgData, p.seal.seal(buf)))
}

// TamperDetected reports record MAC failures on this link — per-hop
// evidence of on-path modification.
func (p *peer) TamperDetected() uint64 {
	if p.open == nil {
		return 0
	}
	return p.open.MACFailures
}
