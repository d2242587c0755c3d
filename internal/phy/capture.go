package phy

import "math"

// The capture test in the ratio domain (DESIGN.md §13.2). A frame from tx
// received at rx survives an overlapping transmission o only if
//
//	rssi - op >= captureThresholdDB
//
// with rssi = P_tx - PL(d_tx) - rej and op = P_o - PL(d_o) - orej, where
// PL(d) = referenceLossDB + 10·n·log10(max(d, 1)). In real arithmetic the
// reference loss cancels and the interference condition rssi - op < C is
//
//	d_o² < d_tx² · 10^(K/(5n)),   K = C + P_o - P_tx + rej - orej,
//
// both distances clamped to ≥ 1 m as PL clamps them. The factor
// 10^(K/(5n)) depends only on the two transmissions and the receiver's
// channel, so one completion lists, once per receiver channel, the overlaps
// that channel can hear with their source positions and factors, and each
// candidate walks only its channel's list: a squared distance, a multiply
// and a compare per entry instead of a Hypot and a Log10. K itself takes a
// handful of values on a campus, so the medium memoizes 10^(K/(5n)) by K.
//
// The decode floor works in the same domain. A candidate is below it iff
// P_tx - PL(d_tx) - N < decodeFloorSNRDB (channel rejection cancels out of
// snr + rej), which in real arithmetic is d_tx² > reach², with reach the
// transmitter's decodeReach. So the floor needs only the squared distance
// the capture test already uses, and rssi is computed only for a frame that
// reaches the loss model.
//
// Exactness: the dB expression evaluated in floating point is what the
// determinism contract pins, and it carries an absolute rounding error far
// below 1e-12 dB. The squared distances and thresholds carry relative
// errors of a few ulps. A relative gap of ratioGuard between a squared
// distance and its threshold is a gap of 5n·log10(1+1e-9) ≈ 2.2e-9·n dB in
// the dB expression — thousands of times either form's error — so outside
// the guard band the two forms give the same boolean, and inside it the
// test evaluates the dB expression itself. Non-finite values fail the band
// check and take the dB expression too. Shadowing adds a per-frame draw to
// rssi that the ratio form cannot see, so shadowed mediums keep the dB
// expressions and compute rssi first. The test is a pure OR, and on an
// unshadowed medium its dB fallback is a pure function of the geometry, so
// leaving out an overlap the receiver's channel cannot hear (+Inf
// rejection) changes no boolean.

// ratioGuard is the relative half-width of the band around a threshold
// inside which a ratio-domain test defers to the exact dB expression.
const ratioGuard = 1e-9

// interferer is one overlap as a receiver channel hears it: the source
// position and threshold factor the ratio test reads, and the transmission
// and channel rejection its dB fallback needs.
type interferer struct {
	pos  Position
	f    float64 // 10^(K/(5n))
	o    *transmission
	orej float64
}

// captureScratch is the capture test's per-medium state. lists[c] holds one
// completion's interferers on receiver channel c, in overlap order, built on
// the first candidate tuned to c; bit c of built marks it current, so the
// per-completion reset is one store. pow memoizes the threshold factors
// across completions.
type captureScratch struct {
	built uint16
	lists [MaxChannel + 1][]interferer
	pow   powMemo
}

// reset forgets the previous completion's lists.
func (c *captureScratch) reset() { c.built = 0 }

// list returns tx's interferers as heard on channel ch.
func (c *captureScratch) list(m *Medium, tx *transmission, ch Channel) []interferer {
	if c.built&(1<<ch) == 0 {
		c.build(m, tx, ch)
	}
	return c.lists[ch]
}

// build lists the overlaps of tx that channel ch can hear (finite
// rejection), each with its threshold factor.
func (c *captureScratch) build(m *Medium, tx *transmission, ch Channel) {
	c.built |= 1 << ch
	l := c.lists[ch][:0]
	rej := channelRejectionDB(tx.channel, ch)
	for _, o := range tx.overlaps {
		orej := channelRejectionDB(o.channel, ch)
		if math.IsInf(orej, 1) {
			continue
		}
		k := captureThresholdDB + o.powerDBm - tx.powerDBm + rej - orej
		l = append(l, interferer{pos: o.src.pos, f: c.pow.factor(k, m.cfg.PathLossExponent), o: o, orej: orej})
	}
	c.lists[ch] = l
}

// powMemoSlots sizes the factor memo's open-addressed table; at most
// powMemoCap slots fill, so every probe ends at an empty slot. A campus
// meets at most 27 K values (power differences 0 and ±6 dB, rejection
// differences 12 dB apart from −48 to 48); a medium that meets more than
// the cap computes the rest uncached.
const (
	powMemoBits  = 6
	powMemoSlots = 1 << powMemoBits
	powMemoCap   = 32
)

// powMemo maps K, by its exact bits, to 10^(K/(5n)) for the medium's
// path-loss exponent n. Every value is the math.Pow result itself, so a hit
// and a miss return the same float.
type powMemo struct {
	keys [powMemoSlots]uint64
	vals [powMemoSlots]float64
	used uint64 // bit i set: slot i holds an entry (so at most 64 slots)
	n    int
}

// factor returns math.Pow(10, k/(5*exp)), storing it while the memo has
// room. exp must be the same on every call.
func (p *powMemo) factor(k, exp float64) float64 {
	b := math.Float64bits(k)
	i := (b * 0x9e3779b97f4a7c15) >> (64 - powMemoBits) // Fibonacci hashing
	for p.used&(1<<i) != 0 {
		if p.keys[i] == b {
			return p.vals[i]
		}
		i = (i + 1) % powMemoSlots
	}
	v := math.Pow(10, k/(5*exp))
	if p.n < powMemoCap {
		p.keys[i], p.vals[i] = b, v
		p.used |= 1 << i
		p.n++
	}
	return v
}

// dist2 is the squared distance between a and b, clamped to ≥ 1 m² exactly
// where pathLossDB clamps the distance to 1 m.
func dist2(a, b Position) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	if d2 := dx*dx + dy*dy; d2 >= 1 {
		return d2
	}
	return 1
}

// belowDecodeFloor reports whether rx, at clamped squared distance d2 from
// tx's source and with rej dB of channel rejection, sits under the decode
// floor. Unshadowed mediums only: the fallback recomputes rssi, which is
// then a pure function of the geometry.
func (m *Medium) belowDecodeFloor(tx *transmission, rx *Radio, rej, d2 float64) bool {
	r2 := tx.reach * tx.reach
	if d := d2 - r2; math.Abs(d) > ratioGuard*r2 {
		return d > 0
	}
	snr := m.rssiAt(tx, rx, rej) - noiseFloorDBm
	return snr+rej < decodeFloorSNRDB
}

// overlapCollides reports whether any of tx.overlaps is loud enough at rx to
// defeat capture of tx's frame, which reaches rx from clamped squared
// distance dtx2 with rej dB of channel rejection. It walks rx's channel list
// in m.capture (reset for tx by the caller). Unshadowed mediums only, like
// belowDecodeFloor. No RNG, no counters; the early return is sound because
// only the OR is observable.
func (m *Medium) overlapCollides(tx *transmission, rx *Radio, rej, dtx2 float64) bool {
	l := m.capture.list(m, tx, rx.channel)
	for i := range l {
		e := &l[i]
		t := dtx2 * e.f
		if d := dist2(e.pos, rx.pos) - t; math.Abs(d) > ratioGuard*t {
			if d < 0 {
				return true
			}
		} else if m.collidesDB(e.o, rx, m.rssiAt(tx, rx, rej), e.orej) {
			return true
		}
	}
	return false
}

// overlapCollidesDB is the capture test in the dB domain for a frame
// received at rssi: the form shadowed mediums need, and the flat test
// medium's reference.
func (m *Medium) overlapCollidesDB(tx *transmission, rx *Radio, rssi float64) bool {
	for _, o := range tx.overlaps {
		orej := channelRejectionDB(o.channel, rx.channel)
		if !math.IsInf(orej, 1) && m.collidesDB(o, rx, rssi, orej) {
			return true
		}
	}
	return false
}

// collidesDB is the capture test's exact dB expression: whether o, received
// at rx with orej channel rejection, comes within the capture threshold of
// a frame received at rssi.
func (m *Medium) collidesDB(o *transmission, rx *Radio, rssi, orej float64) bool {
	op := o.powerDBm - m.pathLossDB(o.src.pos, rx.pos) - orej
	return rssi-op < captureThresholdDB
}
