package phy

import (
	"math"
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

// lossPath names the branch frameSurvives takes for one draw.
type lossPath int

const (
	pathFastTrue  lossPath = iota // u under the lower bound
	pathFastFalse                 // u over the upper bound
	pathPow                       // u between the bounds: Pow decides
	pathOutside                   // outside the window: Bool(Pow) as before
	numLossPaths
)

// classifyLoss reports which path frameSurvives takes for (snr, size) when
// its draw would be u.
func classifyLoss(snr float64, size int, rate Rate, u float64) lossPath {
	pBit := 1 / (1 + math.Exp(-(snr-rate.requiredSNR())*1.2))
	blocks := float64(size)/256 + 1
	if blocks > maxBoundBlocks {
		return pathOutside
	}
	lo, hi := powBounds(pBit, blocks)
	switch {
	case !(lo > 1e-300 && hi < 1-lossGuard):
		return pathOutside
	case u < lo*(1-lossGuard):
		return pathFastTrue
	case u >= hi*(1+lossGuard):
		return pathFastFalse
	}
	return pathPow
}

// lossMatchesRef runs frameSurvives and the oracle on twin mediums seeded
// alike and fails unless the outcomes and the RNG states afterwards agree:
// the bounded draw must draw exactly when, and exactly what, Bool drew.
// It returns the path taken.
func lossMatchesRef(t *testing.T, seed uint64, snr float64, size int, rate Rate) lossPath {
	t.Helper()
	m := NewMedium(sim.NewKernel(seed), Config{})
	ref := NewMedium(sim.NewKernel(seed), Config{})
	peek := *m.rng
	path := classifyLoss(snr, size, rate, peek.Float64())
	got := m.frameSurvives(snr, size, rate)
	want := refFrameSurvives(ref, snr, size, rate)
	if got != want || *m.rng != *ref.rng {
		t.Fatalf("seed %d snr %v size %d rate %v: survives %v (RNG moved in step: %v), oracle %v",
			seed, snr, size, rate, got, *m.rng == *ref.rng, want)
	}
	return path
}

// TestFrameSurvivesMatchesReference sweeps SNR from far below every rate's
// requirement to far above it, across frame sizes that give integer and
// fractional block counts inside and beyond maxBoundBlocks, and non-finite
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
	t.Logf("paths: %d fast-true, %d fast-false, %d Pow, %d outside the window",
		paths[pathFastTrue], paths[pathFastFalse], paths[pathPow], paths[pathOutside])
	for p, n := range paths {
		if n == 0 {
			t.Fatalf("path %d never taken: %v", p, paths)
		}
	}
}

// TestFrameSurvivesWindowEdges drives frameSurvives itself across the
// window's edges, where it switches between one Float64 and Bool: hi
// crossing 1 − lossGuard, lo crossing 1e-300, for integer and fractional
// block counts, plus non-finite SNRs (Bool still draws for NaN).
func TestFrameSurvivesWindowEdges(t *testing.T) {
	for _, size := range []int{0, 100, 256, 512, 1000} {
		blocks := float64(size)/256 + 1
		// Per-block successes at the two edges: hi = 1 − lossGuard, and
		// lo = 1e-300.
		for _, p := range []float64{math.Pow(1-lossGuard, 1/math.Floor(blocks)), math.Pow(1e-300, 1/math.Ceil(blocks))} {
			var inside, outside int
			for _, rate := range allRates {
				snr0 := rate.requiredSNR() - math.Log(1/p-1)/1.2
				// A step that moves pBit by about one ulp, or snr by one.
				h := 2.2e-16 * math.Max(math.Abs(snr0), 1/(1.2*(1-p)))
				for k := -40; k <= 40; k++ {
					for seed := uint64(1); seed <= 3; seed++ {
						if lossMatchesRef(t, seed, snr0+float64(k)*h, size, rate) == pathOutside {
							outside++
						} else {
							inside++
						}
					}
				}
			}
			if inside == 0 || outside == 0 {
				t.Fatalf("size %d, edge at pBit %v not straddled: %d draws inside, %d outside", size, p, inside, outside)
			}
		}
		for _, snr := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			lossMatchesRef(t, 5, snr, size, Rate11Mbps)
		}
	}
}

// TestPowBounds pins powBounds against Pow at ⌊blocks⌋ and ⌈blocks⌉.
func TestPowBounds(t *testing.T) {
	for _, p := range []float64{1e-150, 0.01, 0.3, 0.5, 0.77, 0.999, 1 - 1e-9, 1} {
		for _, size := range []int{0, 1, 255, 256, 257, 700, 1500, 4096, 16128} {
			blocks := float64(size)/256 + 1
			lo, hi := powBounds(p, blocks)
			wantLo, wantHi := math.Pow(p, math.Ceil(blocks)), math.Pow(p, math.Floor(blocks))
			if math.Abs(lo-wantLo) > 1e-14*wantLo || math.Abs(hi-wantHi) > 1e-14*wantHi {
				t.Fatalf("p %v blocks %v: bounds [%v, %v], Pow gives [%v, %v]", p, blocks, lo, hi, wantLo, wantHi)
			}
		}
	}
}

// TestSurvivesDrawAtBounds aims the draw at each bound, each guarded bound
// and the Pow value itself, ± a few ulps, and compares survivesDraw with
// the plain u < Pow(pBit, blocks). Integer block counts of four or more are
// where the repeated product and Pow's squarings can round apart; the guard
// must absorb that, so at least one such case is required.
func TestSurvivesDrawAtBounds(t *testing.T) {
	ps := []float64{1e-150, 1.0000001e-100, 0.01, 0.1, 0.3, 0.5, 0.6, 0.77, 0.9, 0.97, 0.999, 1 - 2e-9, 1 - 1.0000001e-9}
	for i := 0; i < 200; i++ {
		ps = append(ps, 0.05+0.9*float64(i)/200+1e-7*float64(i%7))
	}
	sizes := []int{0, 100, 255, 256, 257, 512, 768, 1024, 1280, 1536, 1792, 2048, 3000, 4096, 16128}
	var checks, roundedApart int
	for _, p := range ps {
		for _, size := range sizes {
			blocks := float64(size)/256 + 1
			lo, hi := powBounds(p, blocks)
			if !(lo > 1e-300 && hi < 1-lossGuard) {
				continue
			}
			pow := math.Pow(p, blocks)
			if lo == hi && lo != pow {
				roundedApart++
			}
			for _, aim := range []float64{lo, hi, lo * (1 - lossGuard), hi * (1 + lossGuard), pow} {
				u := aim
				for k := 0; k < 4; k++ {
					u = math.Nextafter(u, 0)
				}
				for k := -4; k <= 4; k++ {
					if got, want := survivesDraw(u, p, blocks, lo, hi), u < pow; got != want {
						t.Fatalf("p %v blocks %v u %v: bounded %v, Pow %v (lo %v, hi %v, pow %v)",
							p, blocks, u, got, want, lo, hi, pow)
					}
					checks++
					u = math.Nextafter(u, 1)
				}
			}
		}
	}
	t.Logf("%d checks; %d integer-block cases where the product and Pow round apart", checks, roundedApart)
	if roundedApart == 0 {
		t.Fatal("no case where the repeated product and Pow round apart: the guard is untested")
	}
}

// FuzzLossDraw checks frameSurvives against the oracle for any seed, SNR
// (NaN and ±Inf included), frame size up to 64 KB and rate: the outcome and
// the RNG state afterwards must both match.
func FuzzLossDraw(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, snr float64, size uint16, rate uint8) {
		lossMatchesRef(t, seed, snr, int(size), allRates[rate%4])
	})
}
