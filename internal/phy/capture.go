package phy

import "math"

// The capture test in the ratio domain (DESIGN.md §13.2). A frame from tx
// received at rx survives an overlapping transmission o only if
//
//	rssi - op >= CaptureThresholdDB
//
// with rssi = P_tx - PL(d_tx) - rej and op = P_o - PL(d_o) - orej, where
// PL(d) = ReferenceLossDB + 10·n·log10(max(d, 1)). In real arithmetic the
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
// Exactness: the dB expression evaluated in floating point is what the
// determinism contract pins, and it carries an absolute rounding error far
// below 1e-12 dB. Both squared distances and the threshold carry relative
// errors of a few ulps. A relative gap of captureGuard between d_o² and the
// threshold is a gap of 5n·log10(1+1e-9) ≈ 2.2e-9·n dB between rssi - op and
// C — thousands of times either form's error — so outside the guard band
// the two forms give the same boolean, and inside it the test evaluates the
// dB expression itself. Non-finite values fail the band check and take the
// dB expression too. Shadowing adds a per-frame draw to rssi that the
// ratio form cannot see, so shadowed mediums always use the dB expression.

// captureGuard is the relative half-width of the band around the threshold
// inside which the ratio test defers to the exact dB expression.
const captureGuard = 1e-9

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
		k := m.cfg.CaptureThresholdDB + o.powerDBm - tx.powerDBm +
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

// overlapCollides reports whether any of tx.overlaps is loud enough at rx to
// defeat capture of tx's frame received at rssi, memoizing threshold factors
// in m.capture (reset for tx's overlaps by the caller). No RNG, no counters;
// the early return is sound because only the OR is observable.
func (m *Medium) overlapCollides(tx *transmission, rx *Radio, rssi float64) bool {
	dtx2 := 0.0 // clamped squared tx→rx distance, computed on first use
	for i, o := range tx.overlaps {
		orej := channelRejectionDB(o.channel, rx.channel)
		if math.IsInf(orej, 1) {
			continue
		}
		if m.cfg.ShadowingSigmaDB > 0 {
			if m.collidesDB(o, rx, rssi, orej) {
				return true
			}
			continue
		}
		if dtx2 == 0 {
			dtx2 = dist2(tx.src.pos, rx.pos)
		}
		t := dtx2 * m.capture.factor(m, tx, o, i, rx.channel, orej)
		if d := dist2(o.src.pos, rx.pos) - t; math.Abs(d) > captureGuard*t {
			if d < 0 {
				return true
			}
		} else if m.collidesDB(o, rx, rssi, orej) {
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
	return rssi-op < m.cfg.CaptureThresholdDB
}
