package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestGenerateTopologyCampus(t *testing.T) {
	topo := GenerateTopology(TopologyConfig{Kind: TopoCampus, Seed: 1, APs: 12, STAs: 72})
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(topo.APs) != 12 || len(topo.STAs) != 72 {
		t.Fatalf("got %d APs / %d STAs", len(topo.APs), len(topo.STAs))
	}
	// Every cluster is populated (round-robin homes).
	perAP := make([]int, 12)
	for _, sta := range topo.STAs {
		perAP[sta.Home]++
	}
	for i, n := range perAP {
		if n != 6 {
			t.Errorf("AP %d has %d stations, want 6", i, n)
		}
	}
	// Grid neighbours never share a channel: the (row+2·col) mod 3
	// coloring differs across any single grid step.
	cols := int(math.Ceil(math.Sqrt(12)))
	for i, ap := range topo.APs {
		row, col := i/cols, i%cols
		for _, j := range []int{i + 1, i + cols} {
			if j >= len(topo.APs) {
				continue
			}
			jr, jc := j/cols, j%cols
			adjacent := (jr == row && jc == col+1) || (jr == row+1 && jc == col)
			if adjacent && topo.APs[j].Channel == ap.Channel {
				t.Errorf("grid neighbours %s and %s share channel %d",
					ap.Name, topo.APs[j].Name, ap.Channel)
			}
		}
	}
}

func TestGenerateTopologyDeterministic(t *testing.T) {
	cfg := TopologyConfig{Kind: TopoCampus, Seed: 99, APs: 30, STAs: 300}
	a, b := GenerateTopology(cfg), GenerateTopology(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config generated different topologies")
	}
	cfg.Seed = 100
	c := GenerateTopology(cfg)
	if reflect.DeepEqual(a.STAs, c.STAs) {
		t.Fatal("different seeds generated identical station placements")
	}
}

// TestGenerateTopologyAllKindsValidate validates the campus generator, the
// only kind, from a single AP to a 1,024-station campus.
func TestGenerateTopologyAllKindsValidate(t *testing.T) {
	for _, n := range []struct{ aps, stas int }{{1, 0}, {3, 7}, {16, 256}, {64, 1024}} {
		topo := GenerateTopology(TopologyConfig{Kind: TopoCampus, Seed: 7, APs: n.aps, STAs: n.stas})
		if err := topo.Validate(); err != nil {
			t.Errorf("%d/%d: %v", n.aps, n.stas, err)
		}
	}
}

// TestGenerateTopologyJoinWindow: station power-on times spread over the
// two-second join window, so a campus does not scan in lockstep.
func TestGenerateTopologyJoinWindow(t *testing.T) {
	topo := GenerateTopology(TopologyConfig{Kind: TopoCampus, Seed: 5, APs: 4, STAs: 40})
	for _, sta := range topo.STAs {
		if sta.JoinAt < 0 || sta.JoinAt >= joinWindow {
			t.Fatalf("%s joins at %v, outside [0, %v)", sta.Name, sta.JoinAt, joinWindow)
		}
	}
}

func TestValidateRejectsBrokenLayouts(t *testing.T) {
	base := func() *Topology {
		return GenerateTopology(TopologyConfig{Kind: TopoCampus, Seed: 1, APs: 4, STAs: 8})
	}
	for name, breakIt := range map[string]func(*Topology){
		"off-plan channel": func(t *Topology) { t.APs[0].Channel = 3 },
		"duplicate BSSID":  func(t *Topology) { t.APs[1].BSSID = t.APs[0].BSSID },
		"duplicate MAC":    func(t *Topology) { t.STAs[1].MAC = t.STAs[0].MAC },
		"orphan home":      func(t *Topology) { t.STAs[0].Home = 99 },
		"disconnected STA": func(t *Topology) { t.STAs[0].Pos.X += 5000 },
		"non-finite pos":   func(t *Topology) { t.APs[0].Pos.Y = math.NaN() },
		"negative join":    func(t *Topology) { t.STAs[0].JoinAt = -sim.Second },
	} {
		topo := base()
		breakIt(topo)
		if err := topo.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken layout", name)
		}
	}
}

// FuzzTopologyGenerator: for ANY seed and size the generator must yield a
// layout that passes Validate (channel-legal, connected, unique addresses)
// and must be a pure function of its config.
func FuzzTopologyGenerator(f *testing.F) {
	f.Add(uint64(1), uint16(12), uint16(72))
	f.Add(uint64(42), uint16(1), uint16(0))
	f.Add(uint64(7), uint16(500), uint16(2000))
	f.Add(uint64(3), uint16(0), uint16(9))
	f.Add(uint64(9), uint16(3), uint16(30))
	f.Fuzz(func(t *testing.T, seed uint64, aps, stas uint16) {
		cfg := TopologyConfig{
			Kind: TopoCampus,
			Seed: seed,
			APs:  int(aps % 512),
			STAs: int(stas % 2048),
		}
		topo := GenerateTopology(cfg)
		if err := topo.Validate(); err != nil {
			t.Fatalf("config %+v: %v", cfg, err)
		}
		if again := GenerateTopology(cfg); !reflect.DeepEqual(topo, again) {
			t.Fatalf("config %+v: generator is not deterministic", cfg)
		}
	})
}
