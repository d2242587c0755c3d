package dot11

import (
	"repro/internal/ethernet"
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/wep"
)

// TU is the 802.11 time unit (1024 µs) used for beacon intervals.
const TU = 1024 * sim.Microsecond

// dataRate is the bit rate every AP, station and injector transmits at.
const dataRate = phy.Rate11Mbps

// DCF/MAC parameters (simplified but shaped like the standard).
const (
	sifs       = 10 * sim.Microsecond
	difs       = 50 * sim.Microsecond
	slotTime   = 20 * sim.Microsecond
	cwMin      = 15
	cwMax      = 1023
	maxRetries = 7
)

// txJob is one frame queued for transmission. The job owns one reference to
// pb (the serialised frame) for as long as a retransmission may need it; each
// radio transmission takes its own reference.
type txJob struct {
	pb       *pkt.Buf
	needsAck bool
	attempt  int // CSMA deferrals (resets per retry)
	retries  int // ACK-timeout retransmissions
}

// entity is the MAC engine shared by AP and STA: sequence numbering, a
// stop-and-wait transmit queue with carrier sense, per-frame link-layer
// acknowledgements with retransmission, and receive-side duplicate
// filtering. This is what makes the simulated link usable by TCP: a
// collision costs a ~600 µs MAC retry instead of a 200 ms transport RTO.
type entity struct {
	kernel *sim.Kernel
	radio  *phy.Radio
	rng    *sim.RNG
	addr   ethernet.MAC // own MAC; zero for raw injectors (no ACK behaviour)
	seq    uint16

	// queue[qhead:] is the pending-frame FIFO; the backing array is reused
	// once drained instead of being re-allocated per frame.
	queue    []*txJob
	qhead    int
	inflight *txJob
	// freeJobs is the LIFO freelist of recycled txJob structs.
	freeJobs []*txJob
	ackTimer sim.Timer
	nextTxAt sim.Time

	// attemptSendFn/kickFn are the method closures scheduled for every
	// pacing, backoff, and completion event — bound once here so the hot
	// path does not allocate a fresh closure per frame.
	attemptSendFn func()
	kickFn        func()

	// handler receives frames that pass address and duplicate filtering.
	handler func(f Frame, info phy.RxInfo)
	// lastRx maps transmitter -> last sequence number, for retry dedup.
	lastRx map[ethernet.MAC]uint16

	// Counters.
	Deferrals   uint64
	MACRetries  uint64
	TxFailed    uint64
	AcksSent    uint64
	DupsDropped uint64
}

func newEntity(k *sim.Kernel, radio *phy.Radio, addr ethernet.MAC) *entity {
	e := &entity{
		kernel: k, radio: radio, rng: k.RNG().Fork(), addr: addr,
		lastRx: make(map[ethernet.MAC]uint16),
	}
	e.attemptSendFn = e.attemptSend
	e.kickFn = e.kick
	radio.SetReceiver(e.onRadioFrame)
	return e
}

// nextSeq returns the next 12-bit sequence-control number — the monotonic
// per-device counter the detect package's rogue monitor analyses.
func (e *entity) nextSeq() uint16 {
	s := e.seq
	e.seq = (e.seq + 1) & 0x0fff
	return s
}

// transmit assigns a sequence number and queues the frame.
func (e *entity) transmit(f Frame) {
	f.Seq = e.nextSeq()
	e.enqueue(f)
}

// enqueue queues a frame without touching its sequence number, serialising
// it into a pooled buffer.
func (e *entity) enqueue(f Frame) {
	pb := e.kernel.BufPool().Get()
	b := pb.Extend(f.WireLen())
	f.putHeader(b)
	copy(b[headerLen:], f.Body)
	e.enqueueBuf(f.Addr1, f.Type, pb)
}

// transmitBuf assigns a sequence number and queues a data frame whose body
// already sits in pb, pushing the MAC header into the buffer's headroom —
// the zero-copy path. f.Body is ignored; the frame describes the header
// only. Ownership of pb transfers to the transmit queue.
//
//simvet:owner transfer pb moves into the transmit queue via enqueueBuf
func (e *entity) transmitBuf(f Frame, pb *pkt.Buf) {
	f.Seq = e.nextSeq()
	f.putHeader(pb.Push(headerLen))
	e.enqueueBuf(f.Addr1, f.Type, pb)
}

// enqueueBuf queues a serialised frame and starts transmission if idle.
//
//simvet:owner transfer pb is stored in the txJob; the queue drain releases it after the air handoff
func (e *entity) enqueueBuf(addr1 ethernet.MAC, typ Type, pb *pkt.Buf) {
	needsAck := !addr1.IsMulticast() && e.addr != (ethernet.MAC{}) && typ != TypeControl
	var job *txJob
	if n := len(e.freeJobs); n > 0 {
		job = e.freeJobs[n-1]
		e.freeJobs = e.freeJobs[:n-1]
		*job = txJob{pb: pb, needsAck: needsAck}
	} else {
		job = &txJob{pb: pb, needsAck: needsAck}
	}
	e.queue = append(e.queue, job)
	e.kick()
}

// putJob recycles a finished job. Callers must have released (or handed off)
// job.pb and ensured no pending timer still references the job.
func (e *entity) putJob(job *txJob) {
	job.pb = nil
	e.freeJobs = append(e.freeJobs, job)
}

// kick starts the next queued frame if the channel logic is idle.
func (e *entity) kick() {
	if e.inflight != nil || e.qhead >= len(e.queue) {
		return
	}
	e.inflight = e.queue[e.qhead]
	e.queue[e.qhead] = nil
	e.qhead++
	if e.qhead == len(e.queue) {
		e.queue = e.queue[:0]
		e.qhead = 0
	}
	e.attemptSend()
}

// attemptSend transmits the inflight frame, deferring on pacing and carrier.
func (e *entity) attemptSend() {
	job := e.inflight
	if job == nil {
		return
	}
	now := e.kernel.Now()
	if now < e.nextTxAt {
		e.kernel.At(e.nextTxAt, e.attemptSendFn)
		return
	}
	if e.radio.CarrierBusy() {
		e.Deferrals++
		job.attempt++
		backoff := difs + sim.Time(e.rng.Intn(cwMin+1))*slotTime
		e.kernel.After(backoff, e.attemptSendFn)
		return
	}
	end := e.radio.SendBuf(job.pb.Retain(), dataRate)
	// Contention gap before our next transmission, so other stations can
	// win the channel between our frames.
	e.nextTxAt = end + difs + sim.Time(e.rng.Intn(8))*slotTime
	if !job.needsAck {
		// No retransmission possible: the radio's reference is the last one.
		job.pb.Release()
		e.inflight = nil
		e.putJob(job)
		e.kernel.At(end, e.kickFn)
		return
	}
	// Await the link-layer ACK.
	timeout := end + sifs + phy.Airtime(ackFrameLen, dataRate) + 3*slotTime
	e.ackTimer = e.kernel.At(timeout, func() { e.onAckTimeout(job) })
}

func (e *entity) onAckTimeout(job *txJob) {
	if e.inflight != job {
		return
	}
	job.retries++
	if job.retries > maxRetries {
		e.TxFailed++
		job.pb.Release()
		e.inflight = nil
		// The timer that fired to get here was the job's only live
		// reference; safe to recycle.
		e.putJob(job)
		e.kick()
		return
	}
	e.MACRetries++
	// Set the Retry bit for the retransmission. Safe in place: the previous
	// attempt's air occupancy ended strictly before this timeout fired, so
	// the phy has already mixed and delivered the un-retried bytes.
	job.pb.Bytes()[1] |= 0x08
	// Exponential backoff before the retry.
	cw := cwMin << uint(job.retries)
	if cw > cwMax {
		cw = cwMax
	}
	e.nextTxAt = e.kernel.Now() + difs + sim.Time(e.rng.Intn(cw+1))*slotTime
	e.attemptSend()
}

func (e *entity) onAckReceived() {
	if e.inflight == nil {
		return
	}
	e.ackTimer.Cancel()
	e.inflight.pb.Release()
	// The ack timer was just cancelled, so nothing references the job.
	e.putJob(e.inflight)
	e.inflight = nil
	e.kick()
}

// ackFrameLen is the serialised size of our control ACK.
const ackFrameLen = headerLen

// sendAck transmits a control ACK to dst after SIFS, bypassing contention
// (ACKs have channel priority in DCF).
func (e *entity) sendAck(dst ethernet.MAC) {
	e.AcksSent++
	ack := Frame{Type: TypeControl, Subtype: SubtypeAck, Addr1: dst}
	pb := e.kernel.BufPool().Get()
	ack.putHeader(pb.Extend(ackFrameLen))
	e.kernel.After(sifs, func() { e.radio.SendBuf(pb, dataRate) })
}

// onRadioFrame is the shared receive path: ACK handling, ACK generation,
// duplicate filtering, then the owner's handler.
func (e *entity) onRadioFrame(raw []byte, info phy.RxInfo) {
	f, err := Unmarshal(raw)
	if err != nil {
		return
	}
	if f.Type == TypeControl {
		if f.Subtype == SubtypeAck && e.addr != (ethernet.MAC{}) && f.Addr1 == e.addr {
			e.onAckReceived()
		}
		return
	}
	if e.addr != (ethernet.MAC{}) && f.Addr1 == e.addr {
		e.sendAck(f.Addr2)
		if f.Retry {
			if last, ok := e.lastRx[f.Addr2]; ok && last == f.Seq {
				e.DupsDropped++
				return
			}
		}
		e.lastRx[f.Addr2] = f.Seq
	}
	if e.handler != nil {
		e.handler(f, info)
	}
}

// sealBody WEP-encapsulates a frame body if a key is configured.
func sealBody(key wep.Key, ivs wep.IVSource, body []byte) []byte {
	return wep.Seal(key, ivs.NextIV(), 0, body)
}

// BSS describes an observed basic service set, as accumulated from beacons
// and probe responses during a scan.
type BSS struct {
	SSID           string
	BSSID          ethernet.MAC
	Channel        phy.Channel
	RSSIDBm        float64
	Capability     uint16
	BeaconInterval uint16 // TU
}

// Privacy reports whether the BSS requires WEP.
func (b BSS) Privacy() bool { return b.Capability&CapPrivacy != 0 }
