package phy

import (
	"fmt"
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

// refChannelRejectionDB is channelRejectionDB as arithmetic, before the
// table, kept verbatim as the oracle.
func refChannelRejectionDB(a, b Channel) float64 {
	d := int(a) - int(b)
	if d < 0 {
		d = -d
	}
	if d == 0 {
		return 0
	}
	if d >= 5 {
		return math.Inf(1)
	}
	return float64(d) * 12
}

// refCaptureSlots, refCaptureScratch and refOverlapCollidesRatio are the
// ratio-domain capture test as it stood before the interferer lists, kept
// verbatim (with the rejection oracle) as the oracle: a factor table per
// (overlap, receiver channel) reset per completion, and a rejection lookup
// per (candidate, overlap) pair.
const refCaptureSlots = int(MaxChannel) + 1

type refCaptureScratch struct {
	fac []float64
}

func (c *refCaptureScratch) reset(n int) {
	need := n * refCaptureSlots
	if cap(c.fac) < need {
		c.fac = make([]float64, need)
		return
	}
	c.fac = c.fac[:need]
	clear(c.fac)
}

func (c *refCaptureScratch) factor(m *Medium, tx, o *transmission, i int, ch Channel, orej float64) float64 {
	slot := &c.fac[i*refCaptureSlots+int(ch)]
	if *slot == 0 {
		k := captureThresholdDB + o.powerDBm - tx.powerDBm +
			refChannelRejectionDB(tx.channel, ch) - orej
		*slot = math.Pow(10, k/(5*m.cfg.PathLossExponent))
	}
	return *slot
}

func refOverlapCollidesRatio(m *Medium, c *refCaptureScratch, tx *transmission, rx *Radio, rej, dtx2 float64) bool {
	for i, o := range tx.overlaps {
		orej := refChannelRejectionDB(o.channel, rx.channel)
		if math.IsInf(orej, 1) {
			continue
		}
		t := dtx2 * c.factor(m, tx, o, i, rx.channel, orej)
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

// TestChannelRejectionTable checks the rejection table against the
// arithmetic it replaced for every pair of channels.
func TestChannelRejectionTable(t *testing.T) {
	for a := MinChannel; a <= MaxChannel; a++ {
		for b := MinChannel; b <= MaxChannel; b++ {
			got, want := channelRejectionDB(a, b), refChannelRejectionDB(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("channels %d, %d: rejection %v, want %v", a, b, got, want)
			}
		}
	}
}

// TestPowMemoExact fills a factor memo past its cap, for several path-loss
// exponents, with integer and fractional K, signed zeros, a K whose factor
// underflows to 0 and one that overflows to +Inf. Every call, hit or miss,
// must return math.Pow's float bit for bit, and so must every stored entry,
// the underflowed 0 included; past the cap nothing more is stored.
func TestPowMemoExact(t *testing.T) {
	for _, exp := range []float64{2, 3, 3.5} {
		var p powMemo
		ks := []float64{-1e5, 1e5, 10, -2, 0, math.Copysign(0, -1), 16, 22, -14, -26, 10.5, 1e-300}
		for k := -60.0; k <= 60; k += 6 {
			ks = append(ks, k)
		}
		hits := 0
		for pass := 0; pass < 3; pass++ {
			for _, k := range ks {
				before := p.n
				got, want := p.factor(k, exp), math.Pow(10, k/(5*exp))
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("exp %v K %v pass %d: factor %v, math.Pow %v", exp, k, pass, got, want)
				}
				if p.n == before {
					hits++
				}
			}
		}
		if p.n != powMemoCap || hits == 0 {
			t.Fatalf("exp %v: %d entries stored (cap %d), %d calls stored nothing", exp, p.n, powMemoCap, hits)
		}
		var zero, stored int
		for i := 0; i < powMemoSlots; i++ {
			if p.used&(1<<i) == 0 {
				continue
			}
			stored++
			k := math.Float64frombits(p.keys[i])
			if want := math.Pow(10, k/(5*exp)); math.Float64bits(p.vals[i]) != math.Float64bits(want) {
				t.Fatalf("exp %v slot %d: K %v stored %v, math.Pow %v", exp, i, k, p.vals[i], want)
			}
			if p.vals[i] == 0 {
				zero++
			}
		}
		if stored != powMemoCap || zero != 1 {
			t.Fatalf("exp %v: %d entries in use, %d underflowed zeros stored; want %d and 1", exp, stored, zero, powMemoCap)
		}
	}
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
// each receiver channel's interferer list is built once and reused by every
// receiver on that channel.
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
				m.capture.reset()
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
	m.capture.reset()
	l := m.capture.list(m, tx, c.rxCh)
	if len(l) != 1 || l[0].o != o || l[0].orej != orej {
		panic(fmt.Sprintf("interferer list %+v for one audible overlap", l))
	}
	t := dist2(c.tx, c.rx) * l[0].f
	if c.placeAtThreshold {
		// The factor depends on powers and channels only; lists copy the
		// source position, so rebuild them after placing the interferer.
		osrc.pos = Position{X: c.rx.X + math.Sqrt(t*(1+c.thresholdRelOffset)), Y: c.rx.Y}
		m.capture.reset()
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

// listStats counts an interferer-list differential run: capture tests
// compared, those that collided, and those at a receiver whose first
// audible interferer sat in the guard band, so that both forms took the dB
// fallback on it.
type listStats struct{ checks, collided, band int }

// checkInterfererLists runs rounds completions' capture tests on m, a
// spatial medium, comparing overlapCollides with refOverlapCollidesRatio
// and with the dB oracle. Each round sends from a random radio, at its power
// or 6 dB hotter, with 1 to maxOverlaps overlaps from random radios (powers
// likewise), and tests every radio on a channel that can hear the frame,
// resetting the medium's lists once per round as a completion does. In a
// third of the rounds the first overlap comes from a radio attached for the
// round within a relative 4e-10 of its capture threshold at one receiver,
// which puts that receiver in the guard band.
func checkInterfererLists(t *testing.T, m *Medium, rng *sim.RNG, rounds, maxOverlaps int) listStats {
	t.Helper()
	var st listStats
	var ref refCaptureScratch
	newTx := func(src *Radio) *transmission {
		p := src.txPower
		if rng.Bool(0.1) {
			p += 6
		}
		return &transmission{src: src, channel: src.channel, powerDBm: p}
	}
	for round := 0; round < rounds; round++ {
		radios := m.Radios()
		tx := newTx(radios[rng.Intn(len(radios))])
		var edge *Radio // the receiver the first overlap is aimed at
		for try := 0; try < 50 && edge == nil && round%3 == 0; try++ {
			rx := radios[rng.Intn(len(radios))]
			if rx == tx.src || math.IsInf(channelRejectionDB(tx.channel, rx.channel), 1) {
				continue
			}
			ch := min(max(rx.channel-4+Channel(rng.Intn(9)), MinChannel), MaxChannel)
			o := &transmission{channel: ch, powerDBm: [2]float64{defaultTxPowerDBm, defaultTxPowerDBm + 6}[rng.Intn(2)]}
			ref.reset(1)
			th := dist2(tx.src.pos, rx.pos) * ref.factor(m, tx, o, 0, rx.channel, refChannelRejectionDB(ch, rx.channel))
			d, a := math.Sqrt(th*(1+(rng.Float64()*2-1)*4e-10)), rng.Float64()*2*math.Pi
			o.src = m.AddRadio(RadioConfig{Name: "edge", Pos: Position{X: rx.pos.X + d*math.Cos(a), Y: rx.pos.Y + d*math.Sin(a)},
				Channel: ch, TxPowerDBm: o.powerDBm})
			tx.overlaps = append(tx.overlaps, o)
			edge = rx
		}
		for n := 1 + rng.Intn(maxOverlaps); n > 0; n-- {
			tx.overlaps = append(tx.overlaps, newTx(radios[rng.Intn(len(radios))]))
		}
		m.capture.reset()
		ref.reset(len(tx.overlaps))
		for _, rx := range m.Radios() {
			rej := channelRejectionDB(tx.channel, rx.channel)
			if rx == tx.src || math.IsInf(rej, 1) {
				continue
			}
			d2 := dist2(tx.src.pos, rx.pos)
			got := m.overlapCollides(tx, rx, rej, d2)
			if want := refOverlapCollidesRatio(m, &ref, tx, rx, rej, d2); got != want {
				t.Fatalf("round %d rx %d: interferer lists %v, overlap scan %v", round, rx.idx, got, want)
			}
			if want := refOverlapCollides(m, tx.overlaps, rx, m.rssiAt(tx, rx, rej)); got != want {
				t.Fatalf("round %d rx %d: interferer lists %v, dB oracle %v", round, rx.idx, got, want)
			}
			st.checks++
			if got {
				st.collided++
			}
			if rx == edge {
				o := tx.overlaps[0]
				th := d2 * ref.factor(m, tx, o, 0, rx.channel, refChannelRejectionDB(o.channel, rx.channel))
				if !(math.Abs(dist2(o.src.pos, rx.pos)-th) > ratioGuard*th) {
					st.band++
				}
			}
		}
	}
	return st
}

// TestInterfererListsMatchOverlapScan is the interferer lists' differential
// against the per-pair overlap scan they replaced (and the dB oracle) on
// random worlds: radios on all eleven channels within ±300 m, a tenth of
// them 6 dB hot, a third clustered within a metre of an earlier radio (both
// distances clamped), and path-loss exponents 2, 3 and 3.5. Both outcomes
// and the guard-band fallback must occur.
func TestInterfererListsMatchOverlapScan(t *testing.T) {
	var st listStats
	for seed := uint64(1); seed <= 12; seed++ {
		rng := sim.NewRNG(seed)
		m := NewMedium(sim.NewKernel(seed), Config{PathLossExponent: []float64{2, 3, 3.5}[seed%3]})
		for i := 0; i < 60; i++ {
			pos := Position{X: rng.Float64()*600 - 300, Y: rng.Float64()*600 - 300}
			if i > 0 && rng.Bool(0.3) {
				base := m.Radios()[rng.Intn(i)].pos
				pos = Position{X: base.X + rng.Float64() - 0.5, Y: base.Y + rng.Float64() - 0.5}
			}
			power := float64(defaultTxPowerDBm)
			if rng.Bool(0.1) {
				power += 6
			}
			m.AddRadio(RadioConfig{Name: "r", Pos: pos, Channel: MinChannel + Channel(rng.Intn(int(MaxChannel))), TxPowerDBm: power})
		}
		s := checkInterfererLists(t, m, rng, 60, 8)
		st.checks, st.collided, st.band = st.checks+s.checks, st.collided+s.collided, st.band+s.band
	}
	t.Logf("%d checks, %d collided, %d guard-band fallbacks", st.checks, st.collided, st.band)
	if st.collided == 0 || st.collided == st.checks || st.band == 0 {
		t.Fatalf("weak coverage: %d checks, %d collided, %d guard-band fallbacks", st.checks, st.collided, st.band)
	}
}
