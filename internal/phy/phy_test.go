package phy

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

func newTestMedium(seed uint64) (*sim.Kernel, *Medium) {
	k := sim.NewKernel(seed)
	return k, NewMedium(k, Config{})
}

func TestChannelValid(t *testing.T) {
	if Channel(0).Valid() || Channel(12).Valid() {
		t.Error("out-of-range channel accepted")
	}
	if !Channel(1).Valid() || !Channel(6).Valid() || !Channel(11).Valid() {
		t.Error("valid channel rejected")
	}
}

func TestRateString(t *testing.T) {
	if Rate11Mbps.String() != "11Mbps" || Rate5Mbps.String() != "5.5Mbps" {
		t.Error("rate names")
	}
}

func TestAirtime(t *testing.T) {
	// 1000 bytes at 1 Mb/s = 8000 µs + 192 µs preamble.
	if got := Airtime(1000, Rate1Mbps); got != 8192*sim.Microsecond {
		t.Fatalf("airtime = %v", got)
	}
	// Higher rate, shorter airtime.
	if Airtime(1000, Rate11Mbps) >= Airtime(1000, Rate1Mbps) {
		t.Fatal("11 Mb/s not faster than 1 Mb/s")
	}
}

func TestPositionDistance(t *testing.T) {
	if d := (Position{0, 0}).DistanceTo(Position{3, 4}); d != 5 {
		t.Fatalf("distance = %v", d)
	}
}

func TestNearbyRadiosDeliver(t *testing.T) {
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{5, 0}, Channel: 1})
	var got []byte
	b.SetReceiver(func(data []byte, info RxInfo) { got = append([]byte{}, data...) })
	a.SendBuf(pkt.Wrap([]byte("beacon")), Rate11Mbps)
	k.Run()
	if string(got) != "beacon" {
		t.Fatalf("got %q", got)
	}
	if a.TxFrames != 1 || b.RxFrames != 1 {
		t.Fatal("counters")
	}
}

func TestSenderDoesNotHearItself(t *testing.T) {
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	heard := false
	a.SetReceiver(func(data []byte, info RxInfo) { heard = true })
	a.SendBuf(pkt.Wrap([]byte("x")), Rate1Mbps)
	k.Run()
	if heard {
		t.Fatal("radio received its own transmission")
	}
}

func TestDifferentChannelIsolation(t *testing.T) {
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{5, 0}, Channel: 6})
	heard := false
	b.SetReceiver(func(data []byte, info RxInfo) { heard = true })
	a.SendBuf(pkt.Wrap([]byte("x")), Rate1Mbps)
	k.Run()
	if heard {
		t.Fatal("channel-6 radio heard channel-1 frame (separation 5 must be orthogonal)")
	}
}

func TestAdjacentChannelLeakage(t *testing.T) {
	// Channels 1 and 2 overlap: a very close radio still hears, attenuated.
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{1, 0}, Channel: 2})
	var rssiAdj float64
	b.SetReceiver(func(data []byte, info RxInfo) { rssiAdj = info.RSSIDBm })
	a.SendBuf(pkt.Wrap([]byte("x")), Rate1Mbps)
	k.Run()
	if rssiAdj == 0 {
		t.Fatal("adjacent channel heard nothing at 1 m")
	}
	// Same-channel RSSI for comparison.
	b.SetChannel(1)
	var rssiSame float64
	b.SetReceiver(func(data []byte, info RxInfo) { rssiSame = info.RSSIDBm })
	a.SendBuf(pkt.Wrap([]byte("x")), Rate1Mbps)
	k.Run()
	if math.Abs((rssiSame-rssiAdj)-12) > 0.01 {
		t.Fatalf("adjacent rejection = %v dB, want 12", rssiSame-rssiAdj)
	}
}

func TestDistantRadioDrops(t *testing.T) {
	// A 10 km radio sits far outside the decode range: the spatial grid
	// prunes it before the loss model ever evaluates it, so it hears
	// nothing and costs nothing.
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{10000, 0}, Channel: 1})
	heard := 0
	b.SetReceiver(func(data []byte, info RxInfo) { heard++ })
	for i := 0; i < 50; i++ {
		a.SendBuf(pkt.Wrap([]byte("x")), Rate11Mbps)
	}
	k.Run()
	if heard != 0 {
		t.Fatalf("10 km radio heard %d frames", heard)
	}
}

func TestDecodeFloorSkipsWithoutDraw(t *testing.T) {
	// A radio inside the grid's candidate rectangle but below the decode
	// floor (SNR more than 12 dB under the rate's requirement) is counted
	// as an SNR drop without consuming an RNG draw: two mediums, one with
	// and one without the marginal radio, must keep identical RNG streams.
	run := func(withEdge bool) uint64 {
		k, m := newTestMedium(9)
		a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
		b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{100, 0}, Channel: 1})
		b.SetReceiver(func(data []byte, info RxInfo) {})
		if withEdge {
			// 500 m: beyond the 15 dBm search radius ≈ 402 m but still inside
			// the conservative cell rectangle (cell edge ≈ 402 m), so the
			// grid hands it to the delivery loop and the floor — not the
			// grid — must reject it, without an RNG draw.
			e := m.AddRadio(RadioConfig{Name: "edge", Pos: Position{500, 0}, Channel: 1})
			e.SetReceiver(func(data []byte, info RxInfo) {})
		}
		for i := 0; i < 100; i++ {
			a.SendBuf(pkt.Wrap(make([]byte, 500)), Rate11Mbps)
		}
		k.Run()
		if withEdge {
			edge := m.Radios()[2]
			if edge.RxBelowSNR != 100 {
				t.Fatalf("edge radio RxBelowSNR = %d, want 100", edge.RxBelowSNR)
			}
		}
		return b.RxFrames
	}
	if with, without := run(true), run(false); with != without {
		t.Fatalf("edge radio changed the in-range radio's loss pattern: %d vs %d deliveries", with, without)
	}
}

// TestShardedMatchesUnshardedDigest is the whole-loop differential. With
// every radio inside every sender's decode range, the sharded medium (grid
// gather, squared-distance floor, ratio capture test, loss decision from
// the squared distance, rssi only where needed) must reproduce the flat
// scan (every radio, no floor, dB capture test, rssi first, loss decision
// from the SNR) byte-identically: same candidates, same order, same draws,
// same outcomes. Senders fire in bursts of up to four frames in the same
// instant, so capture and collisions run, and each world adds a sender 6 dB
// hot, sub-metre clusters (the distance clamp) and adjacent channels. The
// compact world keeps every pair within 213 m; the wide one spans to just
// inside the 398 m default-power decode reach, so most draws fall where the
// loss model is uncertain, and mixes 1 and 11 Mb/s frames with integer and
// fractional block counts. Run with and without shadowing (shadowing adds a
// per-candidate draw and disables pruning). On the wide world every loss
// path must be taken, and 99% of decisions must need no Exp or Pow.
func TestShardedMatchesUnshardedDigest(t *testing.T) {
	type outcome struct {
		digest                           uint64
		rx                               [][3]uint64 // RxFrames, RxCollisions, RxBelowSNR
		deliveries, collisions, snrDrops uint64
		captured                         int // deliveries of frames sent in a burst
		mix                              [numLossPaths]uint64
	}
	run := func(wide bool, sigma float64, flat bool) outcome {
		k := sim.NewKernel(7)
		newMedium := NewMedium
		if flat {
			newMedium = newFlatMedium
		}
		m := newMedium(k, Config{ShadowingSigmaDB: sigma})
		layout := sim.NewRNG(11)
		// A 150 m square keeps every pair within 213 m; a 280 m one within
		// 396 m, inside a default-power decode reach of ~398 m.
		n, side := 40, 150.0
		if wide {
			n, side = 64, 280
		}
		radios := make([]*Radio, 0, n)
		heard := 0
		for i := 0; i < n; i++ {
			pos := Position{X: layout.Float64() * side, Y: layout.Float64() * side}
			if i%5 == 4 {
				// Within half a metre of the previous radio.
				base := radios[i-1].pos
				pos = Position{X: base.X + layout.Float64() - 0.5, Y: base.Y + layout.Float64() - 0.5}
			}
			cfg := RadioConfig{Name: fmt.Sprintf("r%d", i), Pos: pos, Channel: Channel(1 + layout.Intn(6))}
			if i == 3 {
				cfg.TxPowerDBm = defaultTxPowerDBm + 6
			}
			r := m.AddRadio(cfg)
			r.SetReceiver(func(data []byte, info RxInfo) { heard++ })
			radios = append(radios, r)
		}
		captured := 0
		rounds, gap, burst := 80, 5*sim.Millisecond, func(round int) int { return round % 4 }
		if wide {
			// Mostly lone frames, spaced wider than a 2346-byte frame's
			// 19 ms at 1 Mb/s, so every candidate reaches the loss model;
			// a burst of four every eighth round.
			rounds, gap = 240, 25*sim.Millisecond
			burst = func(round int) int {
				if round%8 == 0 {
					return 3
				}
				return 0
			}
		}
		for round := 0; round < rounds; round++ {
			before := heard
			for j := 0; j <= burst(round); j++ {
				size, rate := 40+(round*37+j*101)%900, Rate11Mbps
				if wide {
					switch round % 3 {
					case 0:
						size = 256 * (1 + round%4) // an integer block count
					case 1:
						size = 2346 // the largest MSDU: ~10 blocks
					}
					if round%2 == 1 {
						rate = Rate1Mbps
					}
				}
				payload := make([]byte, size)
				payload[0], payload[1] = byte(round), byte(j)
				radios[(round*7+j*13)%len(radios)].SendBuf(pkt.Wrap(payload), rate)
			}
			k.RunFor(gap)
			if burst(round) > 0 {
				captured += heard - before
			}
		}
		k.Run()
		o := outcome{digest: k.Digest(), deliveries: m.Deliveries, collisions: m.Collisions,
			snrDrops: m.SNRDrops, captured: captured, mix: m.lossMix}
		for _, r := range radios {
			o.rx = append(o.rx, [3]uint64{r.RxFrames, r.RxCollisions, r.RxBelowSNR})
		}
		return o
	}
	for _, wide := range []bool{false, true} {
		for _, sigma := range []float64{0, 3} {
			sharded, flat := run(wide, sigma, false), run(wide, sigma, true)
			t.Logf("wide=%v sigma=%v: %d delivered (%d captured in a burst), %d collided, %d lost to SNR; loss paths %v: %v",
				wide, sigma, flat.deliveries, flat.captured, flat.collisions, flat.snrDrops, pathNames, sharded.mix)
			if flat.captured == 0 || flat.collisions == 0 || flat.snrDrops == 0 {
				t.Fatalf("wide=%v sigma=%v: weak scenario: %d captured in a burst, %d collided, %d lost to SNR",
					wide, sigma, flat.captured, flat.collisions, flat.snrDrops)
			}
			if sharded.digest != flat.digest {
				t.Fatalf("wide=%v sigma=%v: sharded digest %016x != unsharded %016x", wide, sigma, sharded.digest, flat.digest)
			}
			for i := range flat.rx {
				if sharded.rx[i] != flat.rx[i] {
					t.Fatalf("wide=%v sigma=%v radio %d: sharded [rx, collided, below SNR] %v, unsharded %v",
						wide, sigma, i, sharded.rx[i], flat.rx[i])
				}
			}
			if !wide || sigma != 0 {
				continue
			}
			var total uint64
			for p, c := range sharded.mix {
				if c == 0 {
					t.Fatalf("wide world: loss path %s never taken: %v", pathNames[p], sharded.mix)
				}
				total += c
			}
			if free := sharded.mix[lossSettled] + sharded.mix[lossCertain]; 100*free < 99*total {
				t.Fatalf("wide world: %d of %d loss decisions needed no Exp or Pow, want 99%%", free, total)
			}
		}
	}
}

func TestShardMigration(t *testing.T) {
	// A channel change migrates a radio between shards: a retuned radio
	// hears its new channel and not its old one. Positions are fixed at
	// AddRadio; a radio attached many grid cells away hears nothing.
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{5, 0}, Channel: 11})
	heard := 0
	b.SetReceiver(func(data []byte, info RxInfo) { heard++ })
	a.SendBuf(pkt.Wrap([]byte("x")), Rate11Mbps)
	k.Run()
	if heard != 0 {
		t.Fatal("channel-11 radio heard channel 1")
	}
	b.SetChannel(1)
	a.SendBuf(pkt.Wrap([]byte("x")), Rate11Mbps)
	k.Run()
	if heard != 1 {
		t.Fatalf("retuned radio heard %d frames, want 1", heard)
	}
	far := m.AddRadio(RadioConfig{Name: "far", Pos: Position{5000, 5000}, Channel: 1})
	farHeard := 0
	far.SetReceiver(func(data []byte, info RxInfo) { farHeard++ })
	a.SendBuf(pkt.Wrap([]byte("x")), Rate11Mbps)
	k.Run()
	if farHeard != 0 {
		t.Fatalf("radio 5 km away heard %d frames", farHeard)
	}
	if heard != 2 {
		t.Fatalf("retuned radio heard %d frames, want 2", heard)
	}
}

func TestRSSIDecreasesWithDistance(t *testing.T) {
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	near := m.AddRadio(RadioConfig{Name: "n", Pos: Position{2, 0}, Channel: 1})
	far := m.AddRadio(RadioConfig{Name: "f", Pos: Position{20, 0}, Channel: 1})
	var rssiNear, rssiFar float64
	near.SetReceiver(func(data []byte, info RxInfo) { rssiNear = info.RSSIDBm })
	far.SetReceiver(func(data []byte, info RxInfo) { rssiFar = info.RSSIDBm })
	a.SendBuf(pkt.Wrap([]byte("x")), Rate1Mbps)
	k.Run()
	if rssiNear <= rssiFar {
		t.Fatalf("near RSSI %v <= far RSSI %v", rssiNear, rssiFar)
	}
	// Log-distance: 10x distance at exponent 3 = 30 dB.
	if math.Abs((rssiNear-rssiFar)-30) > 0.01 {
		t.Fatalf("10x distance attenuation = %v dB, want 30", rssiNear-rssiFar)
	}
}

func TestBroadcastNature(t *testing.T) {
	// The paper's core observation: everyone in range hears everything.
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	heard := 0
	for i := 0; i < 5; i++ {
		r := m.AddRadio(RadioConfig{Pos: Position{float64(i + 1), 0}, Channel: 1})
		r.SetReceiver(func(data []byte, info RxInfo) { heard++ })
	}
	a.SendBuf(pkt.Wrap([]byte("secret")), Rate11Mbps)
	k.Run()
	if heard != 5 {
		t.Fatalf("%d/5 radios heard the frame", heard)
	}
}

func TestCollisionDropsBoth(t *testing.T) {
	k, m := newTestMedium(1)
	// Two senders equidistant from the receiver transmit simultaneously at
	// equal power: neither captures.
	s1 := m.AddRadio(RadioConfig{Name: "s1", Pos: Position{-5, 0}, Channel: 1})
	s2 := m.AddRadio(RadioConfig{Name: "s2", Pos: Position{5, 0}, Channel: 1})
	rx := m.AddRadio(RadioConfig{Name: "rx", Pos: Position{0, 0}, Channel: 1})
	heard := 0
	rx.SetReceiver(func(data []byte, info RxInfo) { heard++ })
	s1.SendBuf(pkt.Wrap(make([]byte, 500)), Rate11Mbps)
	s2.SendBuf(pkt.Wrap(make([]byte, 500)), Rate11Mbps)
	k.Run()
	if heard != 0 {
		t.Fatalf("receiver decoded %d frames during collision", heard)
	}
	if rx.RxCollisions != 2 {
		t.Fatalf("RxCollisions = %d, want 2", rx.RxCollisions)
	}
}

func TestCaptureEffect(t *testing.T) {
	k, m := newTestMedium(1)
	// A much closer sender captures over a distant interferer.
	strong := m.AddRadio(RadioConfig{Name: "strong", Pos: Position{1, 0}, Channel: 1})
	weak := m.AddRadio(RadioConfig{Name: "weak", Pos: Position{50, 0}, Channel: 1})
	rx := m.AddRadio(RadioConfig{Name: "rx", Pos: Position{0, 0}, Channel: 1})
	var decoded []string
	rx.SetReceiver(func(data []byte, info RxInfo) { decoded = append(decoded, string(data)) })
	strong.SendBuf(pkt.Wrap([]byte("strong")), Rate11Mbps)
	weak.SendBuf(pkt.Wrap([]byte("weak!!")), Rate11Mbps)
	k.Run()
	if len(decoded) != 1 || decoded[0] != "strong" {
		t.Fatalf("decoded %v, want [strong] only", decoded)
	}
}

func TestNonOverlappingNoCollision(t *testing.T) {
	k, m := newTestMedium(1)
	s1 := m.AddRadio(RadioConfig{Name: "s1", Pos: Position{-5, 0}, Channel: 1})
	s2 := m.AddRadio(RadioConfig{Name: "s2", Pos: Position{5, 0}, Channel: 1})
	rx := m.AddRadio(RadioConfig{Name: "rx", Pos: Position{0, 0}, Channel: 1})
	heard := 0
	rx.SetReceiver(func(data []byte, info RxInfo) { heard++ })
	s1.SendBuf(pkt.Wrap(make([]byte, 100)), Rate11Mbps)
	k.After(10*sim.Millisecond, func() { s2.SendBuf(pkt.Wrap(make([]byte, 100)), Rate11Mbps) })
	k.Run()
	if heard != 2 {
		t.Fatalf("heard %d frames, want 2", heard)
	}
}

func TestOwnTransmissionsSerialise(t *testing.T) {
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{2, 0}, Channel: 1})
	var times []sim.Time
	b.SetReceiver(func(data []byte, info RxInfo) { times = append(times, k.Now()) })
	a.SendBuf(pkt.Wrap(make([]byte, 100)), Rate1Mbps) // 992 µs
	a.SendBuf(pkt.Wrap(make([]byte, 100)), Rate1Mbps)
	k.Run()
	if len(times) != 2 {
		t.Fatalf("heard %d, want 2 (same-radio frames must queue, not collide)", len(times))
	}
	if times[1]-times[0] != Airtime(100, Rate1Mbps) {
		t.Fatalf("gap %v, want %v", times[1]-times[0], Airtime(100, Rate1Mbps))
	}
}

func TestCarrierSense(t *testing.T) {
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{5, 0}, Channel: 1})
	farAway := m.AddRadio(RadioConfig{Name: "far", Pos: Position{10000, 0}, Channel: 1})
	otherCh := m.AddRadio(RadioConfig{Name: "och", Pos: Position{5, 0}, Channel: 6})
	if b.CarrierBusy() {
		t.Fatal("busy before any transmission")
	}
	a.SendBuf(pkt.Wrap(make([]byte, 1000)), Rate1Mbps)
	k.After(time100us(), func() {
		if !b.CarrierBusy() {
			t.Error("nearby radio does not sense carrier")
		}
		if farAway.CarrierBusy() {
			t.Error("10 km radio senses carrier")
		}
		if otherCh.CarrierBusy() {
			t.Error("orthogonal channel senses carrier")
		}
	})
	k.Run()
	if b.CarrierBusy() {
		t.Fatal("busy after transmission ended")
	}
}

func time100us() sim.Time { return 100 * sim.Microsecond }

func TestSNRAtMatchesModel(t *testing.T) {
	_, m := newTestMedium(1)
	// 15 dBm - (40 + 30*log10(10)) = 15-70 = -55 dBm; SNR = -55+95 = 40 dB.
	got := m.SNRAt(15, Position{0, 0}, Position{10, 0})
	if math.Abs(got-40) > 0.01 {
		t.Fatalf("SNR = %v, want 40", got)
	}
}

func TestLossIncreasesWithDistance(t *testing.T) {
	k, m := newTestMedium(7)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	// Position a receiver near its sensitivity edge: required SNR 10 at
	// 11 Mb/s, SNR(d) = 70 - 30 log10(d); SNR=10 → d ≈ 100 m.
	edge := m.AddRadio(RadioConfig{Name: "edge", Pos: Position{100, 0}, Channel: 1})
	near := m.AddRadio(RadioConfig{Name: "near", Pos: Position{5, 0}, Channel: 1})
	edgeHeard, nearHeard := 0, 0
	edge.SetReceiver(func(data []byte, info RxInfo) { edgeHeard++ })
	near.SetReceiver(func(data []byte, info RxInfo) { nearHeard++ })
	const n = 200
	for i := 0; i < n; i++ {
		a.SendBuf(pkt.Wrap(make([]byte, 500)), Rate11Mbps)
	}
	k.Run()
	if nearHeard != n {
		t.Fatalf("near radio heard %d/%d", nearHeard, n)
	}
	if edgeHeard == 0 || edgeHeard == n {
		t.Fatalf("edge radio heard %d/%d, want lossy but nonzero", edgeHeard, n)
	}
}

func TestInvalidChannelPanics(t *testing.T) {
	_, m := newTestMedium(1)
	defer func() {
		if recover() == nil {
			t.Error("invalid channel accepted")
		}
	}()
	m.AddRadio(RadioConfig{Channel: 13})
}

func TestSetChannelInvalidPanics(t *testing.T) {
	_, m := newTestMedium(1)
	r := m.AddRadio(RadioConfig{Channel: 1})
	defer func() {
		if recover() == nil {
			t.Error("invalid SetChannel accepted")
		}
	}()
	r.SetChannel(0)
}

func TestRxInfoFields(t *testing.T) {
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 3})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{5, 0}, Channel: 3})
	var info RxInfo
	b.SetReceiver(func(data []byte, i RxInfo) { info = i })
	a.SendBuf(pkt.Wrap(make([]byte, 200)), Rate2Mbps)
	k.Run()
	if info.Channel != 3 || info.Rate != Rate2Mbps || info.Src != a {
		t.Fatalf("info = %+v", info)
	}
	if info.Airtime != Airtime(200, Rate2Mbps) {
		t.Fatal("airtime mismatch")
	}
	if info.SNRDB <= 0 {
		t.Fatal("SNR not positive at 5 m")
	}
}

func TestShadowingAddsVariance(t *testing.T) {
	k := sim.NewKernel(1)
	m := NewMedium(k, Config{ShadowingSigmaDB: 6})
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{10, 0}, Channel: 1})
	rssis := map[float64]bool{}
	b.SetReceiver(func(data []byte, info RxInfo) { rssis[info.RSSIDBm] = true })
	for i := 0; i < 20; i++ {
		a.SendBuf(pkt.Wrap([]byte("x")), Rate1Mbps)
	}
	k.Run()
	if len(rssis) < 10 {
		t.Fatalf("shadowing produced only %d distinct RSSIs", len(rssis))
	}
}

func TestMediumStats(t *testing.T) {
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	b := m.AddRadio(RadioConfig{Name: "b", Pos: Position{5, 0}, Channel: 1})
	b.SetReceiver(func(data []byte, info RxInfo) {})
	a.SendBuf(pkt.Wrap([]byte("x")), Rate11Mbps)
	k.Run()
	if m.Transmissions != 1 || m.Deliveries != 1 {
		t.Fatalf("stats tx=%d rx=%d", m.Transmissions, m.Deliveries)
	}
}

func BenchmarkMediumBroadcast10Radios(b *testing.B) {
	k, m := newTestMedium(1)
	a := m.AddRadio(RadioConfig{Name: "a", Pos: Position{0, 0}, Channel: 1})
	for i := 0; i < 10; i++ {
		r := m.AddRadio(RadioConfig{Pos: Position{float64(i + 1), 0}, Channel: 1})
		r.SetReceiver(func(data []byte, info RxInfo) {})
	}
	payload := make([]byte, 1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.SendBuf(pkt.Wrap(payload), Rate11Mbps)
		k.Run()
	}
}
