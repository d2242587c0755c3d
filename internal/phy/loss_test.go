package phy

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// refFrameSurvives is frameSurvives as it was before the bounded draw, kept
// verbatim as the oracle: one Exp, one Pow and one Bool per call.
func refFrameSurvives(m *Medium, snr float64, size int, rate Rate) bool {
	margin := snr - rate.requiredSNR()
	pBit := 1 / (1 + math.Exp(-margin*1.2)) // per-"block" success
	// Longer frames face more chances to be hit; normalise to 256-byte blocks.
	blocks := float64(size)/256 + 1
	pFrame := math.Pow(pBit, blocks)
	return m.rng.Bool(pFrame)
}

var allRates = [4]Rate{Rate1Mbps, Rate2Mbps, Rate5Mbps, Rate11Mbps}

// pathNames labels the loss paths in test output.
var pathNames = [numLossPaths]string{"settled", "certain", "band", "reference"}

// onlyPath reports the one loss path a fresh medium has taken.
func onlyPath(t *testing.T, m *Medium) lossPath {
	t.Helper()
	var n uint64
	path := numLossPaths
	for p, c := range m.lossMix {
		n += c
		if c > 0 {
			path = lossPath(p)
		}
	}
	if n != 1 {
		t.Fatalf("%d loss decisions counted, want 1: %v", n, m.lossMix)
	}
	return path
}

// lossMatchesRef runs frameSurvives and the oracle on twin mediums seeded
// alike and fails unless the outcomes and the RNG states afterwards agree:
// the decision must draw exactly when, and exactly what, Bool drew. It
// returns the path taken.
func lossMatchesRef(t *testing.T, seed uint64, snr float64, size int, rate Rate) lossPath {
	t.Helper()
	m := NewMedium(sim.NewKernel(seed), Config{})
	ref := NewMedium(sim.NewKernel(seed), Config{})
	got := m.frameSurvives(snr, size, rate)
	want := refFrameSurvives(ref, snr, size, rate)
	if got != want || *m.rng != *ref.rng {
		t.Fatalf("seed %d snr %v size %d rate %v: survives %v (RNG moved in step: %v), oracle %v",
			seed, snr, size, rate, got, *m.rng == *ref.rng, want)
	}
	return onlyPath(t, m)
}

// decisionCase is one receiver of the squared-distance loss decision.
type decisionCase struct {
	seed  uint64
	d2    float64 // squared distance before the 1 m² clamp
	power float64 // transmit power, dBm
	rej   float64 // channel rejection, dB
	size  int
	rate  Rate
	angle float64 // direction from the transmitter to the receiver
}

// decisionMatchesRef runs survivesAt for c on one medium and rssiAt plus the
// oracle on its twin, and fails unless the outcomes, the RNG states
// afterwards and, for a delivered frame, the rssi agree bit for bit. It
// returns the path taken.
func decisionMatchesRef(t *testing.T, c decisionCase) lossPath {
	t.Helper()
	d := math.Sqrt(c.d2)
	pos := Position{X: 17 + d*math.Cos(c.angle), Y: -3 + d*math.Sin(c.angle)}
	var got, want bool
	var gotRSSI, wantRSSI float64
	var ms [2]*Medium
	for i := range ms {
		m := NewMedium(sim.NewKernel(c.seed), Config{})
		src := m.AddRadio(RadioConfig{Name: "tx", Pos: Position{X: 17, Y: -3}})
		rx := m.AddRadio(RadioConfig{Name: "rx", Pos: pos})
		tx := &transmission{src: src, powerDBm: c.power, rate: c.rate, data: make([]byte, c.size)}
		if i == 0 {
			gotRSSI, got = m.survivesAt(tx, rx, c.rej, dist2(src.pos, rx.pos))
		} else {
			wantRSSI = m.rssiAt(tx, rx, c.rej)
			want = refFrameSurvives(m, wantRSSI-noiseFloorDBm, c.size, c.rate)
		}
		ms[i] = m
	}
	if got != want || *ms[0].rng != *ms[1].rng ||
		(got && math.Float64bits(gotRSSI) != math.Float64bits(wantRSSI)) {
		t.Fatalf("%+v: survives %v rssi %v (RNG moved in step: %v), oracle %v rssi %v",
			c, got, gotRSSI, *ms[0].rng == *ms[1].rng, want, wantRSSI)
	}
	return onlyPath(t, ms[0])
}

// TestFrameSurvivesMatchesReference sweeps SNR from far below every rate's
// requirement to far above it, across frame sizes that give integer and
// fractional block counts on both sides of lossMaxBlocks, and non-finite
// SNRs. Every path must be taken.
func TestFrameSurvivesMatchesReference(t *testing.T) {
	sizes := []int{0, 1, 100, 255, 256, 257, 512, 768, 1024, 1500, 2346, 16127, 16128, 16129, 20000}
	snrs := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e6, 1e6, -300, -288, 300}
	for snr := -40.0; snr <= 60; snr += 0.37 {
		snrs = append(snrs, snr)
	}
	var paths [numLossPaths]int
	seed := uint64(0)
	for _, rate := range allRates {
		for _, size := range sizes {
			for _, snr := range snrs {
				seed++
				paths[lossMatchesRef(t, seed, snr, size, rate)]++
			}
		}
	}
	t.Logf("paths %v: %v", pathNames, paths)
	for p, n := range paths {
		if n == 0 {
			t.Fatalf("path %s never taken: %v", pathNames[p], paths)
		}
	}
}

// TestFrameSurvivesWindowEdges drives frameSurvives across every place the
// decision switches between drawing and not drawing, or between ways of
// bounding log₂p: y at roundsToOneY (kept without a draw, or Bool(Pow)), y
// at belowOneY and log₂p's lower bound crossing lossMinLog2 (one Float64,
// or Bool(Pow)), y at both ends of the σ table, and the lossMaxBlocks cap,
// plus non-finite SNRs.
func TestFrameSurvivesWindowEdges(t *testing.T) {
	sizes := []int{0, 100, 256, 512, 1000, 16128, 16129}
	for _, size := range sizes {
		blocks := float64(size)/256 + 1
		edges := []struct {
			name string
			y    float64
			step float64
		}{
			{"rounds to 1", roundsToOneY, 4e-15},
			{"below 1", belowOneY, 4e-15},
			// log₂p = lossMinLog2 in real arithmetic.
			{"underflow", -math.Log(math.Exp2(-lossMinLog2/blocks) - 1), 0.004},
			{"table bottom", sigmaMin, 4e-15},
			{"table top", sigmaMin + sigmaCells/sigmaPerY, 4e-15},
		}
		for _, e := range edges {
			var draws, none [numLossPaths]int
			for _, rate := range allRates {
				for k := -60; k <= 60; k++ {
					snr := (e.y+float64(k)*e.step)/1.2 + rate.requiredSNR()
					for seed := uint64(1); seed <= 2; seed++ {
						p := lossMatchesRef(t, seed, snr, size, rate)
						if p == lossSettled || p == lossBand {
							draws[p]++
						} else {
							none[p]++
						}
					}
				}
			}
			t.Logf("size %d, %s: one Float64 %v, no Float64 of its own %v", size, e.name, draws, none)
		}
		for _, snr := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			lossMatchesRef(t, 5, snr, size, Rate11Mbps)
		}
	}
	// The switches themselves must be straddled where they exist.
	straddles := func(size int, y, step float64, a, b lossPath) {
		t.Helper()
		var seen [numLossPaths]int
		for k := -60; k <= 60; k++ {
			seen[lossMatchesRef(t, 3, (y+float64(k)*step)/1.2+Rate11Mbps.requiredSNR(), size, Rate11Mbps)]++
		}
		if seen[a] == 0 || seen[b] == 0 {
			t.Fatalf("size %d: y = %v ± %v straddles no %s/%s switch: %v", size, y, 60*step, pathNames[a], pathNames[b], seen)
		}
	}
	for _, size := range []int{0, 1000, 16128} {
		blocks := float64(size)/256 + 1
		straddles(size, roundsToOneY, 4e-15, lossCertain, lossRef)
		straddles(size, belowOneY, 4e-15, lossSettled, lossRef)
		straddles(size, -math.Log(math.Exp2(-lossMinLog2/blocks)-1), 0.01, lossSettled, lossRef)
	}
	if got := lossMatchesRef(t, 3, 8, 16129, Rate11Mbps); got != lossRef {
		t.Fatalf("a frame over lossMaxBlocks took path %s", pathNames[got])
	}
}

// TestSurvivesAtMatchesReference sweeps the squared-distance decision over
// distances from the 1 m clamp to beyond the decode reach, transmit powers,
// every rejection the channel plan produces, sizes and rates, against
// rssiAt plus the oracle. Every path must be taken.
func TestSurvivesAtMatchesReference(t *testing.T) {
	var paths [numLossPaths]int
	seed := uint64(0)
	for _, rate := range []Rate{Rate1Mbps, Rate11Mbps} {
		for _, size := range []int{14, 256, 1000, 1500, 16129} {
			for _, power := range []float64{0, 15, 21} {
				for rej := 0.0; rej <= 48; rej += 12 {
					for d := 0.3; d < 900; d *= 1.037 {
						seed++
						paths[decisionMatchesRef(t, decisionCase{
							seed: seed, d2: d * d, power: power, rej: rej, size: size, rate: rate, angle: float64(seed % 7),
						})]++
					}
				}
			}
		}
	}
	t.Logf("paths %v: %v", pathNames, paths)
	for p, n := range paths {
		if n == 0 {
			t.Fatalf("path %s never taken: %v", pathNames[p], paths)
		}
	}
}

// TestLossDrawAtBounds aims the draw at each bound of the log₂p enclosure
// and at the reference's p, ± a few ulps, over y on and between the σ
// table's entries and below it, and block counts from 1 to lossMaxBlocks:
// every settled draw must agree with u < Pow(pBit, blocks), some settled
// draws must sit within a few mantGaps outside a guarded bound, and some
// draws must fall in the band.
func TestLossDrawAtBounds(t *testing.T) {
	var ys []float64
	for y := -45.0; y < belowOneY; y += 0.25 {
		ys = append(ys, y, y+0.1, math.Nextafter(y+0.25, y))
	}
	sizes := []int{0, 1, 100, 255, 256, 257, 512, 1000, 1500, 2346, 4096, 16128}
	var settled, near, band int
	for _, y := range ys {
		for _, size := range sizes {
			blocks := float64(size)/256 + 1
			lo, hi, draws := log2PBounds(y, y, blocks)
			if !draws {
				continue
			}
			pRef := math.Pow(1/(1+math.Exp(-y)), blocks)
			aims := []float64{pRef, math.Exp2(lo), math.Exp2(hi)}
			for _, g := range []float64{0.5, 1, 1.5, 2, 3} {
				aims = append(aims, math.Exp2(lo-lossGuard-g*mantGap), math.Exp2(hi+lossGuard+g*mantGap))
			}
			for _, aim := range aims {
				u := aim
				for k := 0; k < 4; k++ {
					u = math.Nextafter(u, 0)
				}
				for k := -4; k <= 4; k++ {
					ok, path := settleDraw(u, lo, hi)
					switch {
					case path == lossBand:
						band++
					case ok != (u < pRef):
						t.Fatalf("y %v blocks %v u %v: settled %v, reference %v (enclosure [%v, %v], log₂p %v)",
							y, blocks, u, ok, u < pRef, lo, hi, math.Log2(pRef))
					default:
						settled++
						l := math.Log2(u)
						if l < lo-lossGuard && l > lo-lossGuard-4*mantGap ||
							l > hi+lossGuard && l < hi+lossGuard+4*mantGap {
							near++
						}
					}
					u = math.Nextafter(u, 1)
				}
			}
		}
	}
	t.Logf("%d settled (%d within 4 mantGaps outside a guarded bound), %d in the band", settled, near, band)
	if near == 0 || band == 0 {
		t.Fatalf("weak coverage: %d settled, %d near a bound, %d in the band", settled, near, band)
	}
}

// TestPowBelowOne pins the step of the draw proof that belongs to Pow
// rather than to rounding: for every pBit ≤ 1 − 2^−52 within 2^−45 of 1 and
// every block count up to lossMaxBlocks, Pow(pBit, blocks) < 1, so Bool
// draws. Further from 1, only a Pow error of 256 ulps could reach 1.
func TestPowBelowOne(t *testing.T) {
	for k := 2; k <= 256; k++ {
		x := 1 - float64(k)*0x1p-53
		for size := 0; size <= 256*(lossMaxBlocks-1); size++ {
			if b := float64(size)/256 + 1; !(math.Pow(x, b) < 1) {
				t.Fatalf("Pow(1 - %d·2^-53, %v) = %v", k, b, math.Pow(x, b))
			}
		}
	}
}

// TestLossTables pins both literal tables entry by entry against math, and
// checks that they increase and that the bounds built on them enclose
// math's log₂x and log₂σ(y) over their whole domains. On a mismatch it
// prints the table as it should read.
func TestLossTables(t *testing.T) {
	check := func(name string, tab []float64, f func(i int) float64) {
		t.Helper()
		want := make([]float64, len(tab))
		bad := false
		for i := range tab {
			want[i] = f(i)
			if math.Abs(tab[i]-want[i]) > 1e-15*math.Max(1, math.Abs(want[i])) {
				bad = true
				t.Errorf("%s[%d] = %v, math gives %v", name, i, tab[i], want[i])
			}
			if i > 0 && !(tab[i] > tab[i-1]) {
				t.Errorf("%s does not increase at %d: %v after %v", name, i, tab[i], tab[i-1])
			}
		}
		if bad {
			var b strings.Builder
			for i, v := range want {
				if i%4 == 0 {
					b.WriteString("\n\t")
				} else {
					b.WriteString(" ")
				}
				b.WriteString(strconv.FormatFloat(v, 'g', -1, 64) + ",")
			}
			t.Logf("%s should read:%s", name, b.String())
		}
	}
	check("log2MantTab", log2MantTab[:], func(j int) float64 { return math.Log2(1 + float64(j)/mantCells) })
	check("log2SigmaTab", log2SigmaTab[:], func(i int) float64 {
		return log2Sigma(sigmaMin + float64(i)/sigmaPerY)
	})

	// Both enclosures hold to within 1e-13, far inside lossGuard/lossMaxBlocks.
	const tol = 1e-13
	rng := sim.NewRNG(1)
	for i := 0; i < 200000; i++ {
		x := math.Ldexp(1+rng.Float64(), rng.Intn(200)-100)
		if i < 5000 {
			x = 1 + float64(i)/5000 // every mantissa cell, and its ends
		}
		lo, hi := log2Bounds(x)
		if l := math.Log2(x); lo > l+tol || hi < l-tol {
			t.Fatalf("log2Bounds(%v) = [%v, %v], log₂ = %v", x, lo, hi, l)
		}
		y := -60 + 100*rng.Float64()
		if i < 5000 {
			y = sigmaMin + float64(i)/5000*sigmaCells/sigmaPerY
		}
		if s := log2Sigma(y); log2SigmaLo(y) > s+tol || log2SigmaHi(y) < s-tol {
			t.Fatalf("y %v: bounds [%v, %v], log₂σ = %v", y, log2SigmaLo(y), log2SigmaHi(y), s)
		}
	}
}

// log2Sigma is log₂σ(y) from math.
func log2Sigma(y float64) float64 { return -math.Log1p(math.Exp(-y)) / math.Ln2 }

// FuzzLossDraw checks frameSurvives against the oracle for any seed, SNR
// (NaN and ±Inf included), frame size up to 64 KB and rate: the outcome and
// the RNG state afterwards must both match.
func FuzzLossDraw(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, snr float64, size uint16, rate uint8) {
		lossMatchesRef(t, seed, snr, int(size), allRates[rate%4])
	})
}

// FuzzLossDecision checks the squared-distance decision against rssiAt plus
// the oracle for any seed, squared distance up to 1e8 m², transmit power in
// ±80 dBm, rejection 0–48 dB, frame size up to 64 KB and rate: the outcome,
// the RNG state afterwards and a delivered frame's rssi must all match.
func FuzzLossDecision(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, d2, power, rej float64, size uint16, rate uint8) {
		decisionMatchesRef(t, decisionCase{
			seed: seed, d2: math.Abs(fuzzFold(d2, 1e8)), power: fuzzFold(power, 80),
			rej: math.Abs(fuzzFold(rej, 49)), size: int(size), rate: allRates[rate%4], angle: 0.6,
		})
	})
}
