// Package phy models the 802.11b physical layer: a shared broadcast medium
// with DSSS channels 1–11, log-distance path loss, SNR-dependent frame loss,
// airtime at the 1/2/5.5/11 Mb/s rates, carrier sense, and collisions.
//
// The model is deliberately simple but captures the properties the paper's
// attack depends on:
//
//   - broadcast: every radio in range overhears every frame (Section 1.1's
//     eavesdropping asymmetry, experiment E8);
//   - signal strength: clients prefer the loudest AP for an SSID, which is
//     how a nearby rogue wins associations (experiment E1);
//   - channels: the rogue runs on a different channel (Figure 1: CORP on
//     channel 1, rogue on channel 6) so it does not compete with the real AP.
package phy

import (
	"fmt"
	"math"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// Channel is an 802.11b DSSS channel number (1–11 in the US).
type Channel int

// MinChannel and MaxChannel bound the US 802.11b channel plan.
const (
	MinChannel Channel = 1
	MaxChannel Channel = 11
)

// Valid reports whether c is a legal channel.
func (c Channel) Valid() bool { return c >= MinChannel && c <= MaxChannel }

// Rate is an 802.11b PHY bit rate.
type Rate int

// The four 802.11b rates.
const (
	Rate1Mbps  Rate = 1_000_000
	Rate2Mbps  Rate = 2_000_000
	Rate5Mbps  Rate = 5_500_000
	Rate11Mbps Rate = 11_000_000
)

// String formats the rate.
func (r Rate) String() string {
	switch r {
	case Rate5Mbps:
		return "5.5Mbps"
	default:
		return fmt.Sprintf("%dMbps", int(r)/1_000_000)
	}
}

// requiredSNR is the SNR (dB) at which each rate starts working well.
func (r Rate) requiredSNR() float64 {
	switch r {
	case Rate1Mbps:
		return 4
	case Rate2Mbps:
		return 6
	case Rate5Mbps:
		return 8
	default: // 11 Mb/s
		return 10
	}
}

// plcpOverhead is the long-preamble PLCP preamble+header airtime.
const plcpOverhead = 192 * sim.Microsecond

// Airtime reports how long a frame of n bytes occupies the air at rate r,
// including the PLCP preamble.
func Airtime(n int, r Rate) sim.Time {
	return plcpOverhead + sim.Time(math.Round(float64(n*8)/float64(r)*float64(sim.Second)))
}

// Position is a 2-D location in metres.
type Position struct{ X, Y float64 }

// DistanceTo returns the Euclidean distance in metres.
func (p Position) DistanceTo(q Position) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Config sets the propagation model. Zero values take the defaults noted.
type Config struct {
	// PathLossExponent: 2 free space, ~3 indoor office (default 3).
	PathLossExponent float64
	// ShadowingSigmaDB adds per-frame lognormal shadowing (default 0:
	// deterministic propagation; experiments that want fading set it).
	ShadowingSigmaDB float64
}

func (c *Config) fill() {
	if c.PathLossExponent == 0 {
		c.PathLossExponent = 3
	}
}

// The radio environment every medium shares.
const (
	// referenceLossDB is the path loss at 1 m (~2.4 GHz).
	referenceLossDB float64 = 40
	noiseFloorDBm   float64 = -95
	// captureThresholdDB: a frame survives an overlap if it is this much
	// stronger than the interferer.
	captureThresholdDB float64 = 10
	// carrierSenseDBm: energy above this is "channel busy".
	carrierSenseDBm float64 = -85
)

// BurstLoss is a two-state Gilbert–Elliott channel-condition model: the
// medium is either Good or Bad, hopping between the states once per
// completed transmission, and each state adds its own frame-loss
// probability on top of the SNR model. A microwave oven, a passing forklift,
// or a jammer duty cycle all look like this to a receiver: loss arrives in
// bursts, not independently per frame — which is exactly the condition that
// exposes naive retransmission and reassociation logic.
type BurstLoss struct {
	// PGoodToBad is the per-frame probability of entering the Bad state.
	PGoodToBad float64
	// PBadToGood is the per-frame probability of recovering to Good.
	PBadToGood float64
	// GoodLoss is the extra loss probability while Good (usually 0).
	GoodLoss float64
	// BadLoss is the extra loss probability while Bad.
	BadLoss float64
}

// Medium is the shared air. All radios attach to one Medium.
//
// Internally the medium is partitioned into one shard per channel (see
// shard.go): each shard tracks its member radios in a spatial grid and the
// transmissions currently on its air, so a delivery touches only the
// interference neighborhood — O(neighbors), not O(all radios).
type Medium struct {
	kernel *sim.Kernel
	cfg    Config
	rng    *sim.RNG
	// radios is the global attach-order list; each radio's position in it
	// (Radio.idx) fixes the delivery fan-out order.
	radios []*Radio
	// shards[1..11] partition radios and active transmissions by channel.
	shards [MaxChannel + 1]mediumShard
	// defaultReach is decodeReach(defaultTxPowerDBm), shared by every
	// default-power radio; cellSize is the grid cell edge, one default-power
	// search radius.
	defaultReach float64
	cellSize     float64
	// spatial enables grid pruning, the decode floor and the lazy,
	// squared-distance delivery tests. It is off when shadowing is on
	// (reception at any distance is then a draw the loss model must keep
	// making) and under flatScan.
	spatial bool
	// flatScan makes delivery walk every attached radio in attach order,
	// the pre-shard O(radios) medium. Only in-package tests set it, as the
	// differential oracle and the sharded-vs-unsharded benchmark floor.
	flatScan bool
	// cand/candSet/capture are the delivery loop's scratch: the candidate
	// list, the bitset that orders it, and the capture test's interferer
	// lists and factor memo.
	cand    []*Radio
	candSet []uint64
	capture captureScratch

	// burst, when non-nil, is the active Gilbert–Elliott fault state
	// (internal/faults installs it). burstBad is the current chain state.
	burst    *BurstLoss
	burstBad bool

	// lossMix counts loss decisions by the path they took (loss.go): per
	// medium, so worlds running side by side share no counter.
	lossMix [numLossPaths]uint64

	// freeTx is the LIFO freelist of recycled transmission structs. A
	// transmission is recycled only once its own completion has run and no
	// other live transmission's overlaps list references it (pins == 0), so
	// reuse order is a pure function of the event sequence.
	freeTx []*transmission

	// Stats.
	Transmissions uint64
	Deliveries    uint64
	SNRDrops      uint64
	Collisions    uint64
	BurstDrops    uint64
}

type transmission struct {
	src        *Radio
	channel    Channel
	start, end sim.Time
	powerDBm   float64
	// reach is the source radio's decode reach (see decodeReach).
	reach float64
	data  []byte
	// buf owns the bytes data views; the medium releases it when the
	// transmission completes.
	buf  *pkt.Buf
	rate Rate
	air  sim.Time
	// overlaps lists transmissions whose air occupancy intersects this
	// one's; maintained symmetrically as transmissions start.
	overlaps []*transmission
	// pins counts live transmissions whose overlaps list references this
	// one; done records that complete has run. Both gate recycling.
	pins int
	done bool
	// completeFn is the completion closure, bound once per struct so
	// recycled transmissions do not re-allocate it.
	completeFn func()
}

// NewMedium creates an empty medium on the kernel.
func NewMedium(k *sim.Kernel, cfg Config) *Medium {
	cfg.fill()
	m := &Medium{kernel: k, cfg: cfg, rng: k.RNG().Fork()}
	m.defaultReach = m.decodeReach(defaultTxPowerDBm)
	m.cellSize = searchRadius(m.defaultReach)
	m.spatial = cfg.ShadowingSigmaDB == 0
	return m
}

// SetBurstLoss installs (or, with nil, clears) the Gilbert–Elliott burst
// model. Enabling resets the chain to the Good state, so a run's loss
// pattern is a pure function of the seed and the schedule. The chain only
// draws from the RNG while installed: a medium without a burst model has an
// identical random stream to one that never heard of it.
func (m *Medium) SetBurstLoss(b *BurstLoss) {
	m.burst = b
	m.burstBad = false
}

// burstHit steps the Gilbert–Elliott chain once and reports whether the
// current transmission is wiped by the burst condition. Channel-wide: a
// burst is interference every receiver hears, so one draw decides the frame
// for all of them.
func (m *Medium) burstHit() bool {
	b := m.burst
	if b == nil {
		return false
	}
	if m.burstBad {
		if m.rng.Bool(b.PBadToGood) {
			m.burstBad = false
		}
	} else if m.rng.Bool(b.PGoodToBad) {
		m.burstBad = true
	}
	loss := b.GoodLoss
	if m.burstBad {
		loss = b.BadLoss
	}
	return m.rng.Bool(loss)
}

// pathLossDB returns the propagation loss between two positions.
func (m *Medium) pathLossDB(a, b Position) float64 {
	d := a.DistanceTo(b)
	if d < 1 {
		d = 1
	}
	return referenceLossDB + 10*m.cfg.PathLossExponent*math.Log10(d)
}

// rxPowerDBm is the received power at rx for a transmission from tx.
func (m *Medium) rxPowerDBm(txPower float64, txPos, rxPos Position) float64 {
	p := txPower - m.pathLossDB(txPos, rxPos)
	if m.cfg.ShadowingSigmaDB > 0 {
		p += m.rng.NormFloat64() * m.cfg.ShadowingSigmaDB
	}
	return p
}

// rssiAt is tx's received power at rx after rej dB of channel rejection: a
// pure function of the geometry on an unshadowed medium, a draw otherwise.
func (m *Medium) rssiAt(tx *transmission, rx *Radio, rej float64) float64 {
	return m.rxPowerDBm(tx.powerDBm, tx.src.pos, rx.pos) - rej
}

// rejectionDB[d] is the attenuation of energy from a channel d away: 12 dB
// per channel of separation, and +Inf from 5 apart, where 802.11b channels
// are effectively orthogonal.
var rejectionDB = [MaxChannel]float64{0, 12, 24, 36, 48,
	math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)}

// channelRejectionDB attenuates energy from adjacent channels (both valid).
func channelRejectionDB(a, b Channel) float64 {
	d := int(a) - int(b)
	if d < 0 {
		d = -d
	}
	return rejectionDB[d]
}

// RxInfo describes a received frame to the MAC layer.
type RxInfo struct {
	Channel Channel
	RSSIDBm float64
	SNRDB   float64
	Rate    Rate
	At      sim.Time
	Airtime sim.Time
	// Src identifies the transmitting radio; it exists for tracing and is
	// not information a real receiver would have beyond the frame contents.
	Src *Radio
}

// Receiver consumes frames that survive the channel.
type Receiver func(data []byte, info RxInfo)

// Radio is one 802.11 transceiver attached to the medium. A radio is
// half-duplex and tuned to a single channel at a time.
type Radio struct {
	medium  *Medium
	name    string
	pos     Position
	channel Channel
	txPower float64 // dBm, fixed at AddRadio
	// reach is decodeReach(txPower), computed once since power never changes.
	reach    float64
	recv     Receiver
	sendBusy sim.Time // our own tx serialisation
	// down radios neither transmit nor receive — the link-flap fault.
	down bool

	// idx is the radio's global attach order; deliveries fan out in
	// ascending idx, which is the determinism contract's total order.
	idx int
	// digestLabel caches "phy/rx:"+name so the per-delivery digest mix does
	// not concatenate (and allocate) the label per frame.
	digestLabel string
	// shardIdx/cell/cellIdx locate the radio inside its channel shard and
	// grid cell for O(1) retuning (see shard.go); the cell is fixed, since
	// positions are.
	shardIdx int
	cell     gridKey
	cellIdx  int

	// Counters.
	TxFrames, RxFrames, RxCollisions, RxBelowSNR uint64
	TxWhileDown                                  uint64
}

// RadioConfig configures a new radio.
type RadioConfig struct {
	Name       string
	Pos        Position
	Channel    Channel
	TxPowerDBm float64 // default 15 dBm (typical 802.11b card)
}

// AddRadio attaches a new radio to the medium.
func (m *Medium) AddRadio(cfg RadioConfig) *Radio {
	if cfg.TxPowerDBm == 0 {
		cfg.TxPowerDBm = defaultTxPowerDBm
	}
	if cfg.Channel == 0 {
		cfg.Channel = 1
	}
	if !cfg.Channel.Valid() {
		panic(fmt.Sprintf("phy: invalid channel %d", cfg.Channel))
	}
	reach := m.defaultReach
	if cfg.TxPowerDBm != defaultTxPowerDBm {
		reach = m.decodeReach(cfg.TxPowerDBm)
	}
	r := &Radio{medium: m, name: cfg.Name, pos: cfg.Pos, channel: cfg.Channel, txPower: cfg.TxPowerDBm, reach: reach}
	r.digestLabel = "phy/rx:" + cfg.Name
	r.idx = len(m.radios)
	m.radios = append(m.radios, r)
	m.shard(r.channel).insert(r, m.cellOf(r.pos))
	return r
}

// Name reports the radio's human-readable name.
func (r *Radio) Name() string { return r.name }

// Position reports the radio's location, fixed at AddRadio.
func (r *Radio) Position() Position { return r.pos }

// Channel reports the tuned channel.
func (r *Radio) Channel() Channel { return r.channel }

// SetChannel retunes the radio (used by scanning clients and monitors),
// migrating it to the new channel's shard.
func (r *Radio) SetChannel(c Channel) {
	if !c.Valid() {
		panic(fmt.Sprintf("phy: invalid channel %d", c))
	}
	if c == r.channel {
		return
	}
	r.medium.shard(r.channel).remove(r)
	r.channel = c
	r.medium.shard(c).insert(r, r.cell)
}

// SetDown takes the radio off the air (link-flap fault) or brings it back.
// A down radio's transmissions vanish silently and it hears nothing — from
// the protocol's point of view the hardware momentarily died, which is
// precisely what the self-healing logic above it must survive. The radio
// keeps its shard/grid membership while down — flaps are transient and the
// delivery loop's down-check is cheaper than churning the index.
func (r *Radio) SetDown(down bool) { r.down = down }

// Down reports whether the radio is administratively down.
func (r *Radio) Down() bool { return r.down }

// SetReceiver installs the MAC-layer frame handler. The PHY delivers every
// decodable frame on the tuned channel; address filtering is the MAC's job,
// which is exactly why wireless sniffing is trivial.
func (r *Radio) SetReceiver(recv Receiver) { r.recv = recv }

// CarrierBusy reports whether the radio senses energy on its channel. A
// down radio senses nothing.
func (r *Radio) CarrierBusy() bool {
	if r.down {
		return false
	}
	return r.EnergyDBm() >= carrierSenseDBm
}

// SendBuf transmits the packet buffer's view at the given rate on the
// radio's channel, taking ownership of pb (the medium releases it when the
// transmission leaves the air, on every path). Transmissions from one radio
// serialise; the medium handles loss and collisions. The returned time is
// when the transmission ends.
func (r *Radio) SendBuf(pb *pkt.Buf, rate Rate) sim.Time {
	m := r.medium
	now := m.kernel.Now()
	if r.down {
		// The frame leaves the MAC and dies in the dead hardware; report
		// the airtime it would have taken so senders' pacing still works.
		r.TxWhileDown++
		end := now + Airtime(pb.Len(), rate)
		pb.Release()
		return end
	}
	start := now
	if r.sendBusy > start {
		start = r.sendBusy
	}
	air := Airtime(pb.Len(), rate)
	end := start + air
	r.sendBusy = end
	r.TxFrames++
	m.Transmissions++

	tx := m.getTx()
	tx.src, tx.channel, tx.start, tx.end = r, r.channel, start, end
	tx.powerDBm, tx.reach = r.txPower, r.reach
	tx.data, tx.buf, tx.rate, tx.air = pb.Bytes(), pb, rate, air
	// Register overlaps across every shard (in fixed channel order): a
	// transmission up to 8 channels away can still interfere at a receiver
	// sitting between the two, so the overlap graph stays channel-blind —
	// exactly as wide as the pre-shard global scan. Per-receiver rejection
	// decides what actually matters at delivery time.
	for ch := MinChannel; ch <= MaxChannel; ch++ {
		for _, t := range m.shards[ch].active {
			if t.end > start && t.start < end {
				t.overlaps = append(t.overlaps, tx)
				tx.pins++
				tx.overlaps = append(tx.overlaps, t)
				t.pins++
			}
		}
	}
	s := m.shard(r.channel)
	s.active = append(s.active, tx)
	m.kernel.At(end, tx.completeFn)
	return end
}

// getTx pops a recycled transmission or allocates a fresh one, binding its
// completion closure exactly once.
func (m *Medium) getTx() *transmission {
	if n := len(m.freeTx); n > 0 {
		tx := m.freeTx[n-1]
		m.freeTx = m.freeTx[:n-1]
		tx.pins, tx.done = 0, false
		return tx
	}
	tx := &transmission{}
	tx.completeFn = func() { m.complete(tx) }
	return tx
}

// putTx returns a finished transmission to the freelist. The buffer was
// already released by complete; drop the remaining references so the pool
// does not pin them.
func (m *Medium) putTx(tx *transmission) {
	tx.src, tx.data, tx.buf = nil, nil, nil
	tx.overlaps = tx.overlaps[:0]
	m.freeTx = append(m.freeTx, tx)
}

// complete runs at a transmission's end time: it evaluates reception at each
// candidate radio and prunes its shard's active list. The whole fan-out runs
// inside a delivery barrier, so every pkt.Buf released by a receiver —
// including tx's own buffer — is parked in the pool's arena and recycled
// only after the last receiver has run.
func (m *Medium) complete(tx *transmission) {
	rate, air := tx.rate, tx.air
	m.kernel.BeginDelivery()
	defer m.kernel.EndDelivery()
	// The Release receiver is bound here, before retire can recycle tx.
	defer tx.buf.Release()
	defer m.retire(tx)
	now := m.kernel.Now()
	s := m.shard(tx.channel)
	kept := s.active[:0]
	for _, t := range s.active {
		if t != tx && t.end > now {
			kept = append(kept, t)
		}
	}
	for i := len(kept); i < len(s.active); i++ {
		s.active[i] = nil
	}
	s.active = kept

	if m.burstHit() {
		m.BurstDrops++
		return
	}

	// Candidate order is the global attach order in every mode — the RNG
	// draw sequence per candidate is what the digest contract pins.
	cand := m.radios
	if !m.flatScan {
		cand = m.gatherCandidates(tx)
	}
	m.capture.reset()
	for _, rx := range cand {
		// No-receiver radios (the fault jammer is the only kind) are skipped
		// before any loss draw: there is nothing to deliver to, so burning
		// RNG state on them would couple every receiver's loss pattern to
		// the presence of deaf hardware.
		if rx == tx.src || rx.down || rx.recv == nil {
			continue
		}
		rej := channelRejectionDB(tx.channel, rx.channel)
		if math.IsInf(rej, 1) {
			// Only reachable via the flatScan walk; the shard
			// neighborhood never yields an orthogonal-channel radio.
			continue
		}
		var rssi float64
		var survives bool
		if m.spatial {
			// Unshadowed, so rssi is a pure function of the geometry: the
			// floor, the capture test and the loss model decide from the
			// squared distance (DESIGN.md §13.2), and only a frame that is
			// delivered or a draw the loss enclosure cannot settle pays
			// rssi's Hypot and Log10.
			//
			// Below the decode floor: deterministically lost, no RNG draw.
			// The floor deliberately ignores channel rejection — it is the
			// same pure distance/power cut decodeReach solves for, which
			// is what makes grid pruning sound AND keeps the draw sequence
			// for every in-range radio identical to the pre-shard medium
			// (a close radio on an adjacent channel still rolls its dice,
			// exactly as before, however hopeless rejection makes them).
			d2 := dist2(tx.src.pos, rx.pos)
			if m.belowDecodeFloor(tx, rx, rej, d2) {
				rx.RxBelowSNR++
				m.SNRDrops++
				continue
			}
			if m.overlapCollides(tx, rx, rej, d2) {
				rx.RxCollisions++
				m.Collisions++
				continue
			}
			rssi, survives = m.survivesAt(tx, rx, rej, d2)
		} else {
			// Shadowed, where rssi carries a draw that must come first, or
			// the flat test medium: no floor, the dB capture test, and the
			// loss model from the SNR itself.
			rssi = m.rssiAt(tx, rx, rej)
			if m.overlapCollidesDB(tx, rx, rssi) {
				rx.RxCollisions++
				m.Collisions++
				continue
			}
			survives = m.frameSurvives(rssi-noiseFloorDBm, len(tx.data), rate)
		}
		if !survives {
			rx.RxBelowSNR++
			m.SNRDrops++
			continue
		}
		snr := rssi - noiseFloorDBm
		rx.RxFrames++
		m.Deliveries++
		m.kernel.MixDigest(rx.digestLabel, tx.data)
		info := RxInfo{
			Channel: tx.channel, RSSIDBm: rssi, SNRDB: snr,
			Rate: rate, At: now, Airtime: air, Src: tx.src,
		}
		rx.recv(tx.data, info)
	}
}

// retire marks tx finished and recycles every transmission that is no longer
// referenced: tx itself, and any overlap partner whose last pin this was.
func (m *Medium) retire(tx *transmission) {
	tx.done = true
	for _, o := range tx.overlaps {
		o.pins--
		if o.done && o.pins == 0 {
			m.putTx(o)
		}
	}
	if tx.pins == 0 {
		m.putTx(tx)
	}
}

// SNRAt reports the SNR a receiver at pos would see from a transmitter —
// used by topology builders to sanity-check placements.
func (m *Medium) SNRAt(txPower float64, txPos, rxPos Position) float64 {
	return txPower - m.pathLossDB(txPos, rxPos) - noiseFloorDBm
}

// SNRAtDistance reports the deterministic (no-shadowing) SNR d metres from a
// transmitter at txPower dBm under this config; zero-value fields take their
// defaults. It needs no Medium — topology generators use it to validate a
// layout's connectivity before any kernel exists.
func (c Config) SNRAtDistance(txPower, d float64) float64 {
	c.fill()
	if d < 1 {
		d = 1
	}
	return txPower - (referenceLossDB + 10*c.PathLossExponent*math.Log10(d)) - noiseFloorDBm
}

// DefaultTxPowerDBm is the transmit power AddRadio assigns when RadioConfig
// leaves it zero.
const DefaultTxPowerDBm = defaultTxPowerDBm

// Radios returns the attached radios (for inspection in tests and tools).
func (m *Medium) Radios() []*Radio { return m.radios }
