package phy

// Speculative delivery preparation (DESIGN.md §14). Under a windowed kernel
// (sim.SetWorkers), each transmission's completion event carries a prepare
// hook that runs the deterministic, RNG-free part of delivery ahead of time,
// possibly on a worker goroutine: the candidate gather, the per-receiver
// RSSI/SNR math, the decode-floor cut, and the interference scan over the
// overlaps registered so far. The completion itself — RNG draws, counters,
// digest mixes, receiver callbacks — always commits serially, consuming the
// prepared values only when the generation stamps prove no input changed.
//
// The purity contract (sim.Event.prep): a prepare reads shared medium state
// but writes only its own transmission's txPrep. That holds because prepares
// run strictly between commit phases (the window barrier), when nothing
// mutates the medium, and no two prepares share a txPrep. Everything a
// prepare reads is either immutable after construction (cfg, cellSize,
// spatial), snapshotted into the transmission at send time (channel, power,
// position source, the overlaps prefix), or covered by a generation stamp:
//
//   - posGen: any radio movement invalidates (positions feed every path-loss
//     term);
//   - chanGen over the transmission's channel neighborhood (c±4): every
//     candidate, and every candidate's tuned channel, lives in those shards,
//     and any attach or retune touching them bumps a stamped counter. A
//     retune bumps both endpoints, so radios entering or leaving the
//     neighborhood are covered from either side.
//
// Live per-radio reception state (down, recv) is cheap and order-stable, so
// the commit rechecks it directly instead of stamping it. Overlaps appended
// after the prepare (the list is append-only until retire) fold in at commit
// time: collided is an order-insensitive OR, so prefix + suffix is exact.
//
// Prepares only exist in spatial mode: shadowing makes rxPowerDBm draw from
// the medium's RNG, which a prepare must never touch.

// prepRx is one candidate's precomputed reception.
type prepRx struct {
	rssi, snr float64
	// floor: deterministically below the decode floor (no RNG draw).
	floor bool
	// collided: defeated by an overlap registered before the prepare ran.
	collided bool
}

// txPrep is a transmission's speculative delivery state, owned by the
// prepare hook between the window barrier and the commit.
type txPrep struct {
	prepared  bool
	posGen    uint64
	chanLo    Channel
	nChan     int
	chanGen   [9]uint64 // stamps for channelNeighborhood(channel), ≤ 9 wide
	overlapsN int       // overlaps prefix the interference scan covered
	// cand/candSet/capture are this prepare's own gather and capture
	// scratch, so concurrent prepares share no buffer.
	cand    []*Radio
	candSet []uint64
	capture captureScratch
	rx      []prepRx
}

// prepare speculatively computes tx's delivery. Runs on a prepare lane; see
// the package comment above for why every read is safe and every write is
// tx-local.
func (m *Medium) prepare(tx *transmission) {
	p := &tx.prep
	p.prepared = false
	if !m.spatial {
		return
	}
	p.posGen = m.posGen
	lo, hi := channelNeighborhood(tx.channel)
	p.chanLo = lo
	p.nChan = int(hi - lo + 1)
	for ch := lo; ch <= hi; ch++ {
		p.chanGen[ch-lo] = m.chanGen[ch]
	}
	p.overlapsN = len(tx.overlaps)
	overlaps := tx.overlaps[:p.overlapsN]
	p.capture.reset(p.overlapsN)
	p.cand, p.candSet = m.gatherInto(p.cand[:0], p.candSet, tx)
	if cap(p.rx) < len(p.cand) {
		p.rx = make([]prepRx, len(p.cand))
	}
	p.rx = p.rx[:len(p.cand)]
	for i, rx := range p.cand {
		if rx == tx.src {
			// The commit skips the source before reading its slot.
			continue
		}
		rej := channelRejectionDB(tx.channel, rx.channel)
		// Identical to the serial path's arithmetic (rxPowerDBm never
		// reaches its shadowing draw in spatial mode), so the committed
		// floats are bit-identical.
		rssi := m.rxPowerDBm(tx.powerDBm, tx.src.pos, rx.pos) - rej
		snr := rssi - m.cfg.NoiseFloorDBm
		r := &p.rx[i]
		r.rssi, r.snr = rssi, snr
		r.floor = snr+rej < decodeFloorSNRDB
		r.collided = false
		if !r.floor {
			r.collided = m.overlapCollides(tx, overlaps, 0, rx, rssi, &p.capture)
		}
	}
	p.prepared = true
}

// prepValid reports whether tx's prepared delivery may be committed: the
// prepare ran, no radio moved, and no attach/retune touched the channel
// neighborhood since.
func (m *Medium) prepValid(tx *transmission) bool {
	p := &tx.prep
	if !p.prepared || p.posGen != m.posGen {
		return false
	}
	for i := 0; i < p.nChan; i++ {
		if p.chanGen[i] != m.chanGen[p.chanLo+Channel(i)] {
			return false
		}
	}
	return true
}
