package phy

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// refOverlapCollides is the dB-domain interference scan the ratio test
// replaced, kept verbatim as the oracle: one Hypot and one Log10 per
// (candidate, overlap).
func refOverlapCollides(m *Medium, overlaps []*transmission, rx *Radio, rssi float64) bool {
	for _, o := range overlaps {
		orej := channelRejectionDB(o.channel, rx.channel)
		if math.IsInf(orej, 1) {
			continue
		}
		op := o.powerDBm - m.pathLossDB(o.src.pos, rx.pos) - orej
		if rssi-op < captureThresholdDB {
			return true
		}
	}
	return false
}

// captureCollides runs the capture test the delivery loop runs at rx for a
// frame received at rssi: the ratio form on a spatial (unshadowed) medium,
// the dB form otherwise.
func captureCollides(m *Medium, tx *transmission, rx *Radio, rssi float64) bool {
	if m.spatial {
		return m.overlapCollides(tx, rx, channelRejectionDB(tx.channel, rx.channel), dist2(tx.src.pos, rx.pos))
	}
	return m.overlapCollidesDB(tx, rx, rssi)
}

// candidateRSSI is the serial delivery loop's received power at rx, and
// false for a radio on an orthogonal channel (never a candidate).
func candidateRSSI(m *Medium, tx *transmission, rx *Radio) (float64, bool) {
	rej := channelRejectionDB(tx.channel, rx.channel)
	if math.IsInf(rej, 1) {
		return 0, false
	}
	return m.rxPowerDBm(tx.powerDBm, tx.src.pos, rx.pos) - rej, true
}

// TestOverlapCollidesMatchesDB compares the ratio-domain predicate with the
// dB oracle over random worlds: mixed channels and transmit powers, radios
// clustered within a metre of each other (both distances clamped), several
// path-loss exponents, and shadowed mediums, where the delivery loop must
// stay in the dB domain. The medium's capture scratch is reset once per
// transmission and serves its whole candidate list, as in a completion, so
// cached factors are reused across receivers on the same channel.
func TestOverlapCollidesMatchesDB(t *testing.T) {
	powers := []float64{-5, 0, 15, 21, 30}
	var checks, collided int
	for seed := uint64(1); seed <= 20; seed++ {
		for _, sigma := range []float64{0, 4} {
			rng := sim.NewRNG(seed)
			k := sim.NewKernel(seed)
			m := NewMedium(k, Config{
				PathLossExponent: []float64{2, 3, 3.5}[seed%3],
				ShadowingSigmaDB: sigma,
			})
			for i := 0; i < 40; i++ {
				pos := Position{X: rng.Float64()*300 - 150, Y: rng.Float64()*300 - 150}
				if i > 0 && rng.Bool(0.3) {
					// Cluster within a metre of an earlier radio.
					base := m.Radios()[rng.Intn(i)].pos
					pos = Position{X: base.X + rng.Float64() - 0.5, Y: base.Y + rng.Float64() - 0.5}
				}
				m.AddRadio(RadioConfig{Name: "r", Pos: pos, Channel: MinChannel + Channel(rng.Intn(int(MaxChannel)))})
			}
			radios := m.Radios()
			newTx := func() *transmission {
				src := radios[rng.Intn(len(radios))]
				return &transmission{src: src, channel: src.channel, powerDBm: powers[rng.Intn(len(powers))]}
			}
			for round := 0; round < 50; round++ {
				tx := newTx()
				for n := 1 + rng.Intn(6); n > 0; n-- {
					tx.overlaps = append(tx.overlaps, newTx())
				}
				m.capture.reset(len(tx.overlaps))
				for _, rx := range radios {
					rssi, ok := candidateRSSI(m, tx, rx)
					if rx == tx.src || !ok {
						continue
					}
					got := captureCollides(m, tx, rx, rssi)
					if want := refOverlapCollides(m, tx.overlaps, rx, rssi); got != want {
						t.Fatalf("seed %d sigma %v round %d rx %d: ratio test %v, dB oracle %v", seed, sigma, round, rx.idx, got, want)
					}
					checks++
					if got {
						collided++
					}
				}
			}
		}
	}
	t.Logf("%d checks, %d collided", checks, collided)
	if collided == 0 || collided == checks {
		t.Fatalf("weak scenario: %d of %d checks collided", collided, checks)
	}
}

// captureCase is one (tx, receiver, single overlap) configuration.
type captureCase struct {
	exp                float64
	tx, rx, o          Position
	txCh, rxCh, oCh    Channel
	txPower, oPower    float64
	placeAtThreshold   bool
	thresholdRelOffset float64 // with placeAtThreshold: d_o² = t·(1 + offset)
}

// runCaptureCase evaluates c with the ratio predicate and the dB oracle and
// reports whether the ratio test fell inside its guard band (and so took
// the dB fallback). ok is false when the receiver is not a candidate or the
// overlap is inaudible to it.
func runCaptureCase(c captureCase) (got, want, band, ok bool) {
	m := NewMedium(sim.NewKernel(1), Config{PathLossExponent: c.exp})
	src := m.AddRadio(RadioConfig{Name: "tx", Pos: c.tx, Channel: c.txCh, TxPowerDBm: c.txPower})
	rx := m.AddRadio(RadioConfig{Name: "rx", Pos: c.rx, Channel: c.rxCh})
	osrc := m.AddRadio(RadioConfig{Name: "o", Pos: c.o, Channel: c.oCh, TxPowerDBm: c.oPower})
	tx := &transmission{src: src, channel: c.txCh, powerDBm: c.txPower}
	o := &transmission{src: osrc, channel: c.oCh, powerDBm: c.oPower}
	tx.overlaps = []*transmission{o}
	rssi, isCand := candidateRSSI(m, tx, rx)
	orej := channelRejectionDB(c.oCh, c.rxCh)
	if !isCand || math.IsInf(orej, 1) {
		return false, false, false, false
	}
	m.capture.reset(1)
	t := dist2(c.tx, c.rx) * m.capture.factor(m, tx, o, 0, c.rxCh, orej)
	if c.placeAtThreshold {
		osrc.pos = Position{X: c.rx.X + math.Sqrt(t*(1+c.thresholdRelOffset)), Y: c.rx.Y}
	}
	band = !(math.Abs(dist2(osrc.pos, c.rx)-t) > ratioGuard*t)
	got = m.overlapCollides(tx, rx, channelRejectionDB(c.txCh, c.rxCh), dist2(c.tx, c.rx))
	want = refOverlapCollides(m, tx.overlaps, rx, rssi)
	return got, want, band, true
}

// TestCaptureRatioNearThreshold aims overlaps at the capture boundary
// itself: interferer distances whose square lands within a few ulps of the
// threshold (the guard band must catch them and defer to the dB
// expression), just outside the band on either side (the ratio test
// decides alone and must still agree), and farther out — for every
// rejection offset 0–4 on both links, mixed transmit powers, and receivers
// within 1 m of the transmitter so the clamp is in play.
func TestCaptureRatioNearThreshold(t *testing.T) {
	offsets := []float64{0, 4e-16, -4e-16, 1e-15, -1e-15, 5e-10, -5e-10,
		1.5e-9, -1.5e-9, 3e-9, -3e-9, 1e-8, -1e-8, 1e-6, -1e-6, 1e-3, -1e-3}
	powers := [][2]float64{{15, 15}, {15, 21}, {21, 15}, {0, 30}, {30, -5}}
	rxAt := []Position{{0.4, 0.3}, {7, 0}, {55, -20}, {300, 120}}
	var cases, bandHits, decidedNear int
	for _, exp := range []float64{2, 3, 4} {
		for txOff := 0; txOff <= 4; txOff++ {
			for oOff := 0; oOff <= 4; oOff++ {
				for _, pw := range powers {
					for _, rxPos := range rxAt {
						for _, off := range offsets {
							c := captureCase{
								exp: exp, tx: Position{}, rx: rxPos,
								rxCh: 6, txCh: Channel(6 - txOff), oCh: Channel(6 + oOff),
								txPower: pw[0], oPower: pw[1],
								placeAtThreshold: true, thresholdRelOffset: off,
							}
							got, want, band, ok := runCaptureCase(c)
							if !ok {
								continue
							}
							if got != want {
								t.Fatalf("%+v: ratio test %v, dB oracle %v (band %v)", c, got, want, band)
							}
							cases++
							if band {
								bandHits++
							} else if math.Abs(off) < 1e-8 {
								decidedNear++
							}
						}
					}
				}
			}
		}
	}
	// Both distances clamped: receiver and interferer under 1 m from the
	// receiver with powers chosen so K = 0, putting d_o² and the threshold
	// both at exactly 1 m².
	for rej := 0; rej <= 4; rej++ {
		c := captureCase{
			exp: 3, tx: Position{0.2, 0.1}, rx: Position{}, o: Position{-0.3, 0.5},
			rxCh: 1, txCh: 1, oCh: Channel(1 + rej),
			txPower: 15, oPower: 15 - 10 + float64(rej)*12,
		}
		got, want, band, ok := runCaptureCase(c)
		if !ok || got != want || !band {
			t.Fatalf("clamped case rej %d: ratio %v, dB %v, band %v, candidate %v", rej, got, want, band, ok)
		}
		cases++
		bandHits++
	}
	t.Logf("%d cases: %d guard-band fallbacks, %d near-threshold ratio decisions", cases, bandHits, decidedNear)
	if bandHits == 0 || decidedNear == 0 {
		t.Fatalf("weak coverage: %d cases, %d guard-band fallbacks, %d near-threshold ratio decisions",
			cases, bandHits, decidedNear)
	}
}

// fuzzFold maps an arbitrary float into (-lim, lim), sending NaN and ±Inf
// to 0: the physical domain the exactness argument is stated for.
func fuzzFold(v, lim float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, lim)
}

// FuzzOverlapCollides checks the ratio test against the dB oracle for one
// transmitter, receiver and interferer anywhere in a 20 km square, with any
// channels, transmit powers in ±60 dBm and path-loss exponents 2–4. A
// nonzero snap places the interferer at a relative offset of up to 1e-8
// from the capture threshold, which keeps the fuzzer on the boundary where
// the guard band matters.
func FuzzOverlapCollides(f *testing.F) {
	f.Fuzz(func(t *testing.T, txX, txY, rxX, rxY, oX, oY, txPower, oPower, snap float64, txCh, rxCh, oCh, exp uint8) {
		c := captureCase{
			exp:  2 + float64(exp%5)/2,
			tx:   Position{fuzzFold(txX, 1e4), fuzzFold(txY, 1e4)},
			rx:   Position{fuzzFold(rxX, 1e4), fuzzFold(rxY, 1e4)},
			o:    Position{fuzzFold(oX, 1e4), fuzzFold(oY, 1e4)},
			txCh: MinChannel + Channel(txCh%11), rxCh: MinChannel + Channel(rxCh%11),
			oCh:     MinChannel + Channel(oCh%11),
			txPower: fuzzFold(txPower, 60), oPower: fuzzFold(oPower, 60),
		}
		if s := fuzzFold(snap, 1); s != 0 {
			c.placeAtThreshold, c.thresholdRelOffset = true, s*1e-8
		}
		if got, want, band, ok := runCaptureCase(c); ok && got != want {
			t.Fatalf("%+v: ratio test %v, dB oracle %v (band %v)", c, got, want, band)
		}
	})
}
