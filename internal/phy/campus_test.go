package phy_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/phy"
	"repro/internal/sim"
)

// TestInterfererListsOnCampusLayout runs the interferer-list differential on
// E15's 256-AP / 4,096-station rung: the generator's campus layout at
// topology seed 1, the APs on the 1/6/11 plan, the rogue 6 dB hot beside AP
// 0 where NewCampusWorld parks it, a quarter of the stations still scanning
// on channel 1 and the rest on their home AP's channel, and bursts of up to
// 40 overlaps from anywhere on the campus, as the channel-blind overlap
// registration produces at this scale.
func TestInterfererListsOnCampusLayout(t *testing.T) {
	topo := core.GenerateTopology(core.TopologyConfig{Kind: core.TopoCampus, Seed: 1, APs: 256, STAs: 4096})
	m := phy.NewMedium(sim.NewKernel(1), phy.Config{})
	for _, ap := range topo.APs {
		m.AddRadio(phy.RadioConfig{Name: ap.Name, Pos: ap.Pos, Channel: ap.Channel})
	}
	home := topo.APs[0]
	rogueCh := phy.Channel(6)
	if home.Channel == 6 {
		rogueCh = 11
	}
	m.AddRadio(phy.RadioConfig{Name: "rogue", Pos: phy.Position{X: home.Pos.X + 6, Y: home.Pos.Y + 4},
		Channel: rogueCh, TxPowerDBm: phy.DefaultTxPowerDBm + 6})
	layout := sim.NewRNG(1)
	for _, s := range topo.STAs {
		ch := topo.APs[s.Home].Channel
		if layout.Bool(0.25) {
			ch = 1
		}
		m.AddRadio(phy.RadioConfig{Name: s.Name, Pos: s.Pos, Channel: ch})
	}
	checks, collided, band := phy.CheckInterfererLists(t, m, 1, 24, 40)
	t.Logf("%d checks, %d collided, %d guard-band fallbacks", checks, collided, band)
	if collided == 0 || collided == checks || band == 0 {
		t.Fatalf("weak coverage: %d checks, %d collided, %d guard-band fallbacks", checks, collided, band)
	}
}
