package phy

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

func TestJammerDeniesChannel(t *testing.T) {
	k, m := newTestMedium(1)
	tx := m.AddRadio(RadioConfig{Name: "tx", Pos: Position{0, 0}, Channel: 1})
	rx := m.AddRadio(RadioConfig{Name: "rx", Pos: Position{10, 0}, Channel: 1})
	heard := 0
	// Count only the legitimate transmitter's 500-byte frames: the PHY also
	// delivers the jammer's (stronger, capture-winning) noise bursts, which
	// a real MAC would discard as garbage.
	rx.SetReceiver(func(data []byte, info RxInfo) {
		if len(data) == 500 {
			heard++
		}
	})

	// Baseline: frames arrive.
	for i := 0; i < 10; i++ {
		tx.SendBuf(pkt.Wrap(make([]byte, 500)), Rate11Mbps)
	}
	k.RunFor(sim.Second)
	if heard != 10 {
		t.Fatalf("baseline heard %d/10", heard)
	}

	// Jam from right next to the receiver: everything collides.
	jamRadio := m.AddRadio(RadioConfig{Name: "jam", Pos: Position{10, 1}, Channel: 1})
	j := NewJammer(k, jamRadio, 1500, Rate1Mbps)
	heard = 0
	for i := 0; i < 20; i++ {
		tx.SendBuf(pkt.Wrap(make([]byte, 500)), Rate11Mbps)
	}
	k.RunFor(sim.Second)
	if heard != 0 {
		t.Fatalf("heard %d frames through the jammer", heard)
	}
	if rx.RxCollisions == 0 {
		t.Fatal("no collisions recorded at the jammed receiver")
	}
	if j.Bursts == 0 {
		t.Fatal("jammer sent nothing")
	}

	// Stop: channel recovers.
	j.Stop()
	k.RunFor(sim.Second) // drain the final burst
	heard = 0
	for i := 0; i < 10; i++ {
		tx.SendBuf(pkt.Wrap(make([]byte, 500)), Rate11Mbps)
	}
	k.RunFor(sim.Second)
	if heard != 10 {
		t.Fatalf("after Stop heard %d/10", heard)
	}
}

func TestJammerEnergyIsShardLocal(t *testing.T) {
	// The jammer senses the air through the per-channel shard index
	// (Radio.EnergyDBm), not through a receiver. A jammer on channel 6 must
	// never observe channel-11 energy beyond the rejection floor — channels
	// 5 apart are orthogonal, so that shard is outside its neighborhood —
	// while the same blaster moved to channel 6 registers loudly.
	k, m := newTestMedium(1)
	noise := noiseFloorDBm
	jamRadio := m.AddRadio(RadioConfig{Name: "jam", Pos: Position{0, 0}, Channel: 6})
	j := NewJammer(k, jamRadio, 700, Rate1Mbps)
	// A continuous channel-11 blaster right next to the jammer: different
	// burst length so its airtime interleaves with the jammer's samples.
	blaster := m.AddRadio(RadioConfig{Name: "blast", Pos: Position{1, 0}, Channel: 11})
	var sendNext func()
	sendNext = func() {
		end := blaster.SendBuf(pkt.Wrap(make([]byte, 400)), Rate1Mbps)
		k.At(end, sendNext)
	}
	sendNext()
	k.RunFor(2 * sim.Second)
	j.Stop()
	if got := j.ObservedEnergyDBm(); got > noise {
		t.Fatalf("channel-6 jammer observed %v dBm of channel-11 energy (rejection floor %v)", got, noise)
	}

	// Positive control: the same geometry on a co-channel blaster.
	k2, m2 := newTestMedium(1)
	jamRadio2 := m2.AddRadio(RadioConfig{Name: "jam", Pos: Position{0, 0}, Channel: 6})
	j2 := NewJammer(k2, jamRadio2, 700, Rate1Mbps)
	blaster2 := m2.AddRadio(RadioConfig{Name: "blast", Pos: Position{1, 0}, Channel: 6})
	var sendNext2 func()
	sendNext2 = func() {
		end := blaster2.SendBuf(pkt.Wrap(make([]byte, 400)), Rate1Mbps)
		k2.At(end, sendNext2)
	}
	sendNext2()
	k2.RunFor(2 * sim.Second)
	j2.Stop()
	if got := j2.ObservedEnergyDBm(); got <= carrierSenseDBm {
		t.Fatalf("co-channel jammer observed only %v dBm, want above carrier-sense threshold", got)
	}
}

func TestJammerIsChannelLocal(t *testing.T) {
	k, m := newTestMedium(1)
	jamRadio := m.AddRadio(RadioConfig{Name: "jam", Pos: Position{0, 0}, Channel: 1})
	NewJammer(k, jamRadio, 1500, Rate1Mbps)
	// Channel 6 (orthogonal) is unaffected.
	tx := m.AddRadio(RadioConfig{Name: "tx", Pos: Position{0, 1}, Channel: 6})
	rx := m.AddRadio(RadioConfig{Name: "rx", Pos: Position{5, 0}, Channel: 6})
	heard := 0
	rx.SetReceiver(func(data []byte, info RxInfo) { heard++ })
	for i := 0; i < 10; i++ {
		tx.SendBuf(pkt.Wrap(make([]byte, 500)), Rate11Mbps)
	}
	k.RunFor(sim.Second)
	if heard != 10 {
		t.Fatalf("orthogonal channel heard %d/10 under jamming", heard)
	}
}
