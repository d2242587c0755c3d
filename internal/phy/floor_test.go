package phy

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// refBelowFloor is the decode floor as the delivery loop evaluated it before
// the squared-distance test, kept verbatim as the oracle: received power,
// SNR, and the pre-rejection cut.
func refBelowFloor(m *Medium, tx *transmission, rx *Radio, rej float64) bool {
	rssi := m.rxPowerDBm(tx.powerDBm, tx.src.pos, rx.pos) - rej
	snr := rssi - noiseFloorDBm
	return snr+rej < decodeFloorSNRDB
}

// floorCase is one (transmitter, receiver) configuration.
type floorCase struct {
	exp                float64
	tx, rx             Position
	txCh, rxCh         Channel
	txPower            float64
	placeAtThreshold   bool
	thresholdRelOffset float64 // with placeAtThreshold: d² = reach²·(1 + offset)
	angle              float64 // with placeAtThreshold: direction from tx to rx
}

// runFloorCase evaluates c with the squared-distance floor and the dB
// oracle and reports whether the ratio test fell inside its guard band (and
// so took the dB fallback). ok is false when the receiver is on an
// orthogonal channel and so never a candidate.
func runFloorCase(c floorCase) (got, want, band, ok bool) {
	m := NewMedium(sim.NewKernel(1), Config{PathLossExponent: c.exp})
	src := m.AddRadio(RadioConfig{Name: "tx", Pos: c.tx, Channel: c.txCh})
	rx := m.AddRadio(RadioConfig{Name: "rx", Pos: c.rx, Channel: c.rxCh})
	rej := channelRejectionDB(c.txCh, c.rxCh)
	if math.IsInf(rej, 1) {
		return false, false, false, false
	}
	tx := &transmission{src: src, channel: c.txCh, powerDBm: c.txPower, reach: m.decodeReach(c.txPower)}
	r2 := tx.reach * tx.reach
	if c.placeAtThreshold {
		d := math.Sqrt(r2 * (1 + c.thresholdRelOffset))
		rx.pos = Position{X: c.tx.X + d*math.Cos(c.angle), Y: c.tx.Y + d*math.Sin(c.angle)}
	}
	d2 := dist2(c.tx, rx.pos)
	band = !(math.Abs(d2-r2) > ratioGuard*r2)
	got = m.belowDecodeFloor(tx, rx, rej, d2)
	want = refBelowFloor(m, tx, rx, rej)
	return got, want, band, true
}

// TestDecodeFloorRatioNearThreshold aims receivers at the decode floor
// itself: squared distances within a few ulps of reach² (the guard band
// must catch them and defer to the dB expression), just outside the band on
// either side (the ratio test decides alone and must still agree), and
// farther out — for every rejection offset 0–4, mixed transmit powers,
// path-loss exponents 2–4, and transmitters whose reach is under a metre so
// the clamp is in play. No workload's receivers land in the band, so this
// test and FuzzDecodeFloor are its only coverage.
func TestDecodeFloorRatioNearThreshold(t *testing.T) {
	offsets := []float64{0, 4e-16, -4e-16, 1e-15, -1e-15, 5e-10, -5e-10,
		1.5e-9, -1.5e-9, 3e-9, -3e-9, 1e-8, -1e-8, 1e-6, -1e-6, 1e-3, -1e-3}
	powers := []float64{-5, 0, 15, 21, 30}
	txAt := []Position{{}, {123.4, -56.7}}
	angles := []float64{0, 0.7, 2.5, -1.9}
	var cases, bandHits, decidedNear, below int
	check := func(c floorCase) {
		got, want, band, ok := runFloorCase(c)
		if !ok {
			return
		}
		if got != want {
			t.Fatalf("%+v: ratio floor %v, dB oracle %v (band %v)", c, got, want, band)
		}
		cases++
		if got {
			below++
		}
		if band {
			bandHits++
		} else if c.placeAtThreshold && math.Abs(c.thresholdRelOffset) < 1e-8 {
			decidedNear++
		}
	}
	for _, exp := range []float64{2, 3, 4} {
		for rej := 0; rej <= 4; rej++ {
			for _, power := range powers {
				for _, txPos := range txAt {
					for _, angle := range angles {
						for _, off := range offsets {
							check(floorCase{
								exp: exp, tx: txPos, txCh: 6, rxCh: Channel(6 + rej), txPower: power,
								placeAtThreshold: true, thresholdRelOffset: off, angle: angle,
							})
						}
					}
				}
			}
		}
	}
	// The clamp: receivers within a metre, from transmitters whose reach is
	// exactly 1 m (P = L0 + N0 + decodeFloorSNRDB = -63 dBm, both forms at
	// the threshold: the fallback must fire), under a metre (every receiver
	// is below the floor) and far beyond (none is).
	for _, exp := range []float64{2, 3, 4} {
		for rej := 0; rej <= 4; rej++ {
			for _, power := range []float64{-63, -80, -5} {
				for _, rxPos := range []Position{{}, {0.3, -0.4}, {-0.7, 0.7}} {
					check(floorCase{exp: exp, rx: rxPos, txCh: 1, rxCh: Channel(1 + rej), txPower: power})
				}
			}
		}
	}
	t.Logf("%d cases: %d below the floor, %d guard-band fallbacks, %d near-threshold ratio decisions",
		cases, below, bandHits, decidedNear)
	if bandHits == 0 || decidedNear == 0 || below == 0 || below == cases {
		t.Fatalf("weak coverage: %d cases, %d below, %d guard-band fallbacks, %d near-threshold ratio decisions",
			cases, below, bandHits, decidedNear)
	}
}

// TestRadioReachMatchesPower pins the reach AddRadio caches: bit-identical
// to decodeReach of the radio's power, through the shared default-power
// value or its own Pow, and the default one sized the grid cells.
func TestRadioReachMatchesPower(t *testing.T) {
	for _, exp := range []float64{2, 3, 3.5} {
		m := NewMedium(sim.NewKernel(1), Config{PathLossExponent: exp})
		if m.cellSize != searchRadius(m.decodeReach(defaultTxPowerDBm)) {
			t.Fatalf("exp %v: cell size %v is not the default search radius", exp, m.cellSize)
		}
		for _, power := range []float64{0, -63, -5, 14.999, 15, 21, 30} {
			r := m.AddRadio(RadioConfig{Name: "r", TxPowerDBm: power})
			if want := m.decodeReach(r.txPower); r.reach != want {
				t.Fatalf("exp %v power %v: reach %v, decodeReach %v", exp, power, r.reach, want)
			}
		}
	}
}

// FuzzDecodeFloor checks the squared-distance floor against the dB oracle
// for one transmitter and receiver anywhere in a 20 km square, with any
// channels, transmit powers in ±80 dBm and path-loss exponents 2–4. A
// nonzero snap places the receiver at a relative offset of up to 1e-8 from
// reach², which keeps the fuzzer on the boundary where the guard band
// matters.
func FuzzDecodeFloor(f *testing.F) {
	f.Fuzz(func(t *testing.T, txX, txY, rxX, rxY, power, snap, angle float64, txCh, rxCh, exp uint8) {
		c := floorCase{
			exp:  2 + float64(exp%5)/2,
			tx:   Position{fuzzFold(txX, 1e4), fuzzFold(txY, 1e4)},
			rx:   Position{fuzzFold(rxX, 1e4), fuzzFold(rxY, 1e4)},
			txCh: MinChannel + Channel(txCh%11), rxCh: MinChannel + Channel(rxCh%11),
			txPower: fuzzFold(power, 80),
		}
		if s := fuzzFold(snap, 1); s != 0 {
			c.placeAtThreshold, c.thresholdRelOffset, c.angle = true, s*1e-8, fuzzFold(angle, 7)
		}
		if got, want, band, ok := runFloorCase(c); ok && got != want {
			t.Fatalf("%+v: ratio floor %v, dB oracle %v (band %v)", c, got, want, band)
		}
	})
}
