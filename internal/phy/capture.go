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
// channel, so one completion computes it once per (overlap, receiver
// channel) and each (candidate, overlap) check costs a few multiplies
// instead of a Hypot and a Log10.
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
// expressions and compute rssi first.

// ratioGuard is the relative half-width of the band around a threshold
// inside which a ratio-domain test defers to the exact dB expression.
const ratioGuard = 1e-9

// captureSlots is the factor-table stride: one slot per channel number.
const captureSlots = int(MaxChannel) + 1

// captureScratch memoizes one completion's ratio-domain threshold factors:
// fac[i*captureSlots+c] belongs to overlap i heard on channel c, and 0 means
// not yet computed. The Medium owns one and resets it per completion.
type captureScratch struct {
	fac []float64
}

// reset empties the table for a transmission with n overlaps.
func (c *captureScratch) reset(n int) {
	need := n * captureSlots
	if cap(c.fac) < need {
		c.fac = make([]float64, need)
		return
	}
	c.fac = c.fac[:need]
	clear(c.fac)
}

// factor returns 10^(K/(5n)) for o, overlap i of tx, heard on channel ch
// with orej rejection, computing it on first use. An underflowed 0 is
// recomputed on every call, which is wasteful but exact.
func (c *captureScratch) factor(m *Medium, tx, o *transmission, i int, ch Channel, orej float64) float64 {
	slot := &c.fac[i*captureSlots+int(ch)]
	if *slot == 0 {
		k := captureThresholdDB + o.powerDBm - tx.powerDBm +
			channelRejectionDB(tx.channel, ch) - orej
		*slot = math.Pow(10, k/(5*m.cfg.PathLossExponent))
	}
	return *slot
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
// distance dtx2 with rej dB of channel rejection. Threshold factors are
// memoized in m.capture (reset for tx's overlaps by the caller). Unshadowed
// mediums only, like belowDecodeFloor. No RNG, no counters; the early
// return is sound because only the OR is observable.
func (m *Medium) overlapCollides(tx *transmission, rx *Radio, rej, dtx2 float64) bool {
	for i, o := range tx.overlaps {
		orej := channelRejectionDB(o.channel, rx.channel)
		if math.IsInf(orej, 1) {
			continue
		}
		t := dtx2 * m.capture.factor(m, tx, o, i, rx.channel, orej)
		if d := dist2(o.src.pos, rx.pos) - t; math.Abs(d) > ratioGuard*t {
			if d < 0 {
				return true
			}
		} else if m.collidesDB(o, rx, m.rssiAt(tx, rx, rej), orej) {
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
