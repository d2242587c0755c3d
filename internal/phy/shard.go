package phy

import (
	"math"
	"math/bits"
)

// This file is the spatial/channel index behind the medium: one shard per
// DSSS channel, each holding the radios tuned to it (bucketed by a coarse
// square grid) and the transmissions it currently carries. A transmission is
// evaluated only against the radios that could possibly decode it — the
// shards within adjacent-channel rejection range and the grid cells within
// the maximum decode range — so delivery cost scales with the interference
// neighborhood, not the world size.
//
// Determinism (DESIGN.md §13): the gather marks every candidate in a bitset
// over the global insertion index (Radio.idx) and then walks the set bits
// upward, so candidates come out in the exact radio order the pre-shard
// medium used (global attach order) without a comparison sort. The set
// provably contains every radio the loss model would roll dice for — which
// is why the pinned chaos digests survive the refactor byte-identical.

// decodeFloorDB puts a hard floor under the loss model: a receiver whose
// pre-rejection SNR sits this far below the most forgiving rate's required
// SNR has a per-block success probability under 6e-7 at ANY rate, and the
// medium skips the delivery attempt without consuming an RNG draw. The
// floor is what makes spatial pruning sound — the grid may hand the
// delivery loop a superset of the in-range radios, and the floor is the
// exact, deterministic filter.
//
// Two deliberate choices keep the draw sequence identical to the pre-shard
// medium for every world whose radios sit inside the decode range:
//   - the floor ignores channel rejection (a close radio on an adjacent
//     channel still rolls its dice, however hopeless rejection makes them,
//     exactly as before the refactor);
//   - it only applies when shadowing is off: lognormal shadowing makes
//     reception at any distance a draw the loss model must keep making, so
//     shadowed mediums evaluate every radio in the channel neighborhood.
const decodeFloorDB = 12

// decodeFloorSNRDB is the floor as an absolute pre-rejection SNR: below
// Rate1Mbps's 4 dB requirement minus the floor margin, no rate decodes.
const decodeFloorSNRDB = 4 - decodeFloorDB

// defaultTxPowerDBm is the radio default (typical 802.11b card); the grid
// cell size is derived from it so one cell spans a default transmitter's
// decode range.
const defaultTxPowerDBm = 15

// gridKey addresses one square grid cell of a shard.
type gridKey struct{ cx, cy int32 }

// cellRect is an inclusive rectangle of grid cells.
type cellRect struct{ x0, y0, x1, y1 int32 }

// covers reports whether r contains every cell of q.
func (r cellRect) covers(q cellRect) bool {
	return r.x0 <= q.x0 && q.x1 <= r.x1 && r.y0 <= q.y0 && q.y1 <= r.y1
}

// mediumShard is the per-channel partition: member radios, their spatial
// grid, and the transmissions on air on this channel.
type mediumShard struct {
	radios []*Radio
	// members is the membership bitset over the global Radio.idx: bit i is
	// set iff radio i is tuned to this channel.
	members []uint64
	grid    map[gridKey][]*Radio
	// box bounds every cell a radio was ever filed in on this shard (valid
	// once grid is non-nil). It grows in insert and never shrinks, so no
	// member sits outside it.
	box    cellRect
	active []*transmission
}

// shard returns the partition for a channel (caller guarantees validity).
func (m *Medium) shard(c Channel) *mediumShard { return &m.shards[c] }

// channelNeighborhood bounds the channels whose energy is mutually audible:
// 802.11b channels 5 or more apart are orthogonal (channelRejectionDB is
// +Inf), so only c±4 can interact.
func channelNeighborhood(c Channel) (lo, hi Channel) {
	lo, hi = c-4, c+4
	if lo < MinChannel {
		lo = MinChannel
	}
	if hi > MaxChannel {
		hi = MaxChannel
	}
	return lo, hi
}

// decodeReach is the distance at which a transmission at powerDBm falls to
// decodeFloorSNRDB of pre-rejection SNR — beyond it no receiver rolls dice
// for the frame. AddRadio caches it per radio, so the delivery path never
// pays its Pow.
func (m *Medium) decodeReach(powerDBm float64) float64 {
	exp := (powerDBm - referenceLossDB - noiseFloorDBm - decodeFloorSNRDB) /
		(10 * m.cfg.PathLossExponent)
	return math.Pow(10, exp)
}

// searchRadius is the gather's radius around a transmitter with the given
// decode reach. The 1% slack keeps the grid's cell rectangle strictly
// conservative against float rounding: pruning must only ever drop radios
// the floor check would skip anyway.
func searchRadius(reach float64) float64 { return 1.01 * reach }

// cellOf maps a position to its grid cell.
func (m *Medium) cellOf(p Position) gridKey {
	return gridKey{
		cx: int32(math.Floor(p.X / m.cellSize)),
		cy: int32(math.Floor(p.Y / m.cellSize)),
	}
}

// insert adds r (already positioned and tuned) to the shard and its grid
// cell, recording the indices that make removal O(1), and grows the shard's
// cell box to hold the cell.
func (s *mediumShard) insert(r *Radio, key gridKey) {
	r.shardIdx = len(s.radios)
	s.radios = append(s.radios, r)
	w := r.idx >> 6
	for len(s.members) <= w {
		s.members = append(s.members, 0)
	}
	s.members[w] |= 1 << (r.idx & 63)
	if s.grid == nil {
		s.grid = make(map[gridKey][]*Radio)
		s.box = cellRect{key.cx, key.cy, key.cx, key.cy}
	} else {
		s.box = cellRect{min(s.box.x0, key.cx), min(s.box.y0, key.cy), max(s.box.x1, key.cx), max(s.box.y1, key.cy)}
	}
	r.cell = key
	cell := s.grid[key]
	r.cellIdx = len(cell)
	s.grid[key] = append(cell, r)
}

// remove detaches r from the shard and its grid cell via swap-removes.
// Membership order is not observable — the gather orders candidates by
// global index. The cell's emptied tail slot keeps its backing array so
// scan-heavy radios that hop between channels do not reallocate cell slices.
func (s *mediumShard) remove(r *Radio) {
	s.members[r.idx>>6] &^= 1 << (r.idx & 63)
	last := len(s.radios) - 1
	moved := s.radios[last]
	s.radios[r.shardIdx] = moved
	moved.shardIdx = r.shardIdx
	s.radios[last] = nil
	s.radios = s.radios[:last]

	cell := s.grid[r.cell]
	last = len(cell) - 1
	moved = cell[last]
	cell[r.cellIdx] = moved
	moved.cellIdx = r.cellIdx
	cell[last] = nil
	s.grid[r.cell] = cell[:last]
}

// gatherCandidates collects every radio that could decode (or, with
// shadowing, would draw for) tx into m.cand, in ascending global attach
// order — the exact iteration order of the pre-shard medium. m.candSet is a
// bitset over Radio.idx: all zero between calls, grown here when radios were
// attached since its last use. Every candidate is marked in it, and walking
// the set bits upward yields the order with no comparison sort.
func (m *Medium) gatherCandidates(tx *transmission) []*Radio {
	if nw := (len(m.radios) + 63) >> 6; len(m.candSet) < nw {
		m.candSet = make([]uint64, nw)
	}
	cand, set := m.cand[:0], m.candSet
	// Shadowing mode probes no cells: reception at any distance is a draw,
	// so every radio in the channel neighborhood participates.
	cells := int64(math.MaxInt64)
	var rect cellRect
	if m.spatial {
		rad := searchRadius(tx.reach)
		p := tx.src.pos
		rect = cellRect{
			x0: int32(math.Floor((p.X - rad) / m.cellSize)),
			y0: int32(math.Floor((p.Y - rad) / m.cellSize)),
			x1: int32(math.Floor((p.X + rad) / m.cellSize)),
			y1: int32(math.Floor((p.Y + rad) / m.cellSize)),
		}
		cells = int64(rect.x1-rect.x0+1) * int64(rect.y1-rect.y0+1)
	}
	lo, hi := channelNeighborhood(tx.channel)
	for ch := lo; ch <= hi; ch++ {
		s := &m.shards[ch]
		if len(s.radios) == 0 {
			continue
		}
		if int64(len(s.radios)) <= cells || rect.covers(s.box) {
			// Whole shard — shadowing mode; a sparse shard, where ORing the
			// member words beats probing more cells than it has radios; or
			// a rectangle that covers every cell the shard ever filed a
			// radio in, whose cells hold exactly the members. Safe in every
			// case: the decode floor, not the grid, is the exact filter.
			for w, word := range s.members {
				set[w] |= word
			}
			continue
		}
		// Cells outside the box are empty: probe only the overlap.
		for cy := max(rect.y0, s.box.y0); cy <= min(rect.y1, s.box.y1); cy++ {
			for cx := max(rect.x0, s.box.x0); cx <= min(rect.x1, s.box.x1); cx++ {
				for _, r := range s.grid[gridKey{cx, cy}] {
					set[r.idx>>6] |= 1 << (r.idx & 63)
				}
			}
		}
	}
	for w, word := range set {
		if word == 0 {
			continue
		}
		set[w] = 0
		base := w << 6
		for word != 0 {
			cand = append(cand, m.radios[base+bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
	m.cand = cand
	return cand
}

// EnergyDBm reports the strongest energy the radio currently senses on its
// tuned channel, scanning the shard neighborhood's active transmissions —
// the noise floor when the air is quiet (or the radio is down). This is the
// shard-index view of the air that carrier sense and the jammer use; it
// needs no receiver and consumes no RNG.
func (r *Radio) EnergyDBm() float64 {
	m := r.medium
	e := noiseFloorDBm
	if r.down {
		return e
	}
	now := m.kernel.Now()
	lo, hi := channelNeighborhood(r.channel)
	for ch := lo; ch <= hi; ch++ {
		rej := channelRejectionDB(ch, r.channel)
		for _, t := range m.shards[ch].active {
			if t.end <= now || t.start > now || t.src == r {
				continue
			}
			p := t.powerDBm - m.pathLossDB(t.src.pos, r.pos) - rej
			if p > e {
				e = p
			}
		}
	}
	return e
}
