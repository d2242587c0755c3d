package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ethernet"
	"repro/internal/phy"
	"repro/internal/sim"
)

// This file generates campus-scale radio layouts: AP grids with a
// channel-plan coloring and clustered stations with per-seed positions,
// traffic mixes, and staggered join times. A Topology is a pure function of
// its TopologyConfig — it draws only from its own sim.NewRNG(seed), never
// from a kernel — so the same config always yields byte-identical placements
// regardless of when (or whether) a world is built from it. The campus
// scenarios and experiment E15 instantiate these layouts on the sharded
// medium, where delivery cost tracks each transmission's interference
// neighborhood rather than the station count.

// TopologyKind names a layout generator.
type TopologyKind int

// TopoCampus is the only generator: a wide AP grid (55 m pitch) with loose
// station clusters and a mixed traffic profile — the outdoor quad the
// paper's rogue walks into.
const TopoCampus TopologyKind = 0

// String names the kind.
func (k TopologyKind) String() string {
	if k == TopoCampus {
		return "campus"
	}
	return fmt.Sprintf("TopologyKind(%d)", int(k))
}

// TrafficClass is a station's offered-load profile; the campus world maps it
// to a concrete frame schedule.
type TrafficClass int

// Traffic classes.
const (
	// TrafficIdle stations associate and then stay quiet.
	TrafficIdle TrafficClass = iota
	// TrafficLight stations send one small frame about every second.
	TrafficLight
	// TrafficBursty stations send a short back-to-back burst about every
	// two seconds.
	TrafficBursty
)

// String names the class.
func (c TrafficClass) String() string {
	switch c {
	case TrafficIdle:
		return "idle"
	case TrafficLight:
		return "light"
	case TrafficBursty:
		return "bursty"
	}
	return fmt.Sprintf("TrafficClass(%d)", int(c))
}

// TopologyConfig parameterises GenerateTopology.
type TopologyConfig struct {
	Kind TopologyKind
	// Seed drives every placement draw. Equal configs generate equal
	// topologies.
	Seed uint64
	// APs is the access-point count (min 1, clamped to 4096 so derived
	// BSSIDs stay unique).
	APs int
	// STAs is the station count (clamped to 1<<20).
	STAs int
}

// APPlacement is one generated access point.
type APPlacement struct {
	Name    string
	BSSID   ethernet.MAC
	Pos     phy.Position
	Channel phy.Channel
}

// STAPlacement is one generated station.
type STAPlacement struct {
	Name string
	MAC  ethernet.MAC
	Pos  phy.Position
	// Home indexes the AP this station clusters around (and, absent a
	// rogue, will join — it is by construction the strongest signal).
	Home    int
	Traffic TrafficClass
	// JoinAt is when the station powers on and starts scanning.
	JoinAt sim.Time
}

// Topology is a generated layout, ready for NewCampusWorld.
type Topology struct {
	Kind TopologyKind
	Seed uint64
	APs  []APPlacement
	STAs []STAPlacement
}

// Generation limits: derived MACs embed the index, so cap the counts where
// uniqueness (and sanity) ends.
const (
	maxTopoAPs  = 1 << 12
	maxTopoSTAs = 1 << 20
)

// channelPlan is the classic non-overlapping 802.11b plan.
var channelPlan = [3]phy.Channel{1, 6, 11}

// The campus layout: the AP pitch and station cluster radius in metres, the
// traffic mix (the share of idle and of bursty stations; the rest is
// light), and the window over which station Connect times are staggered so
// a campus does not scan in lockstep.
const (
	apPitchM       = 55
	clusterRadiusM = 19
	pIdle, pBursty = 0.20, 0.20
	joinWindow     = 2 * sim.Second
)

// GenerateTopology builds a layout from the config. The result is
// deterministic in the config and always passes Validate.
func GenerateTopology(cfg TopologyConfig) *Topology {
	if cfg.APs < 1 {
		cfg.APs = 1
	}
	if cfg.APs > maxTopoAPs {
		cfg.APs = maxTopoAPs
	}
	if cfg.STAs < 0 {
		cfg.STAs = 0
	}
	if cfg.STAs > maxTopoSTAs {
		cfg.STAs = maxTopoSTAs
	}

	rng := sim.NewRNG(cfg.Seed)
	t := &Topology{Kind: cfg.Kind, Seed: cfg.Seed}

	// Square-ish grid, row-major. The (row + 2·col) mod 3 coloring gives
	// every AP different plan channels than its four grid neighbours, so
	// co-channel cells are at least two pitches apart.
	cols := int(math.Ceil(math.Sqrt(float64(cfg.APs))))
	for i := 0; i < cfg.APs; i++ {
		row, col := i/cols, i%cols
		t.APs = append(t.APs, APPlacement{
			Name:    fmt.Sprintf("ap%02d", i),
			BSSID:   campusAPMAC(i),
			Pos:     phy.Position{X: float64(col) * apPitchM, Y: float64(row) * apPitchM},
			Channel: channelPlan[(row+2*col)%3],
		})
	}

	for i := 0; i < cfg.STAs; i++ {
		// Round-robin homes keep every cluster populated; the polar draw
		// scatters members uniformly over the cluster disc.
		home := i % cfg.APs
		c := t.APs[home].Pos
		r := clusterRadiusM * math.Sqrt(rng.Float64())
		th := 2 * math.Pi * rng.Float64()
		var traffic TrafficClass
		switch u := rng.Float64(); {
		case u < pIdle:
			traffic = TrafficIdle
		case u < pIdle+pBursty:
			traffic = TrafficBursty
		default:
			traffic = TrafficLight
		}
		t.STAs = append(t.STAs, STAPlacement{
			Name:    fmt.Sprintf("sta%04d", i),
			MAC:     campusSTAMAC(i),
			Pos:     phy.Position{X: c.X + r*math.Cos(th), Y: c.Y + r*math.Sin(th)},
			Home:    home,
			Traffic: traffic,
			JoinAt:  rng.Jitter(joinWindow),
		})
	}
	return t
}

// campusAPMAC derives a locally-administered BSSID from the AP index. The
// third byte keeps AP, station, and rogue address spaces disjoint.
func campusAPMAC(i int) ethernet.MAC {
	return ethernet.MAC{0x02, 0xca, 0x00, 0x0a, byte(i >> 8), byte(i)}
}

// campusSTAMAC derives a station MAC from the station index.
func campusSTAMAC(i int) ethernet.MAC {
	return ethernet.MAC{0x02, 0xca, 0x01, byte(i >> 16), byte(i >> 8), byte(i)}
}

// minClientSNRDB is the link budget a layout must guarantee between every
// station and its home AP: comfortably above the 11 Mb/s requirement, so a
// generated campus always has a working association path even before rate
// fallback.
const minClientSNRDB = 16

// Validate checks the layout invariants the rest of the stack relies on:
// every AP on a legal plan channel at a finite position, unique MACs
// throughout, and every station connected (within minClientSNRDB of its
// home AP at default power) with a sane join time. GenerateTopology output
// always passes; hand-built topologies get the same gate in NewCampusWorld.
func (t *Topology) Validate() error {
	if len(t.APs) == 0 {
		return errors.New("topology: no APs")
	}
	seen := make(map[ethernet.MAC]string, len(t.APs)+len(t.STAs))
	for _, ap := range t.APs {
		if ap.Channel != 1 && ap.Channel != 6 && ap.Channel != 11 {
			return fmt.Errorf("topology: %s on channel %d, want one of the 1/6/11 plan", ap.Name, ap.Channel)
		}
		if !finitePos(ap.Pos) {
			return fmt.Errorf("topology: %s at non-finite position", ap.Name)
		}
		if prev, dup := seen[ap.BSSID]; dup {
			return fmt.Errorf("topology: %s and %s share BSSID %v", prev, ap.Name, ap.BSSID)
		}
		seen[ap.BSSID] = ap.Name
	}
	var model phy.Config // defaults: the campus world's propagation
	for _, sta := range t.STAs {
		if sta.Home < 0 || sta.Home >= len(t.APs) {
			return fmt.Errorf("topology: %s homes to AP %d of %d", sta.Name, sta.Home, len(t.APs))
		}
		if !finitePos(sta.Pos) {
			return fmt.Errorf("topology: %s at non-finite position", sta.Name)
		}
		if prev, dup := seen[sta.MAC]; dup {
			return fmt.Errorf("topology: %s and %s share MAC %v", prev, sta.Name, sta.MAC)
		}
		seen[sta.MAC] = sta.Name
		if sta.JoinAt < 0 {
			return fmt.Errorf("topology: %s joins at negative time %v", sta.Name, sta.JoinAt)
		}
		home := t.APs[sta.Home]
		d := sta.Pos.DistanceTo(home.Pos)
		if snr := model.SNRAtDistance(phy.DefaultTxPowerDBm, d); snr < minClientSNRDB {
			return fmt.Errorf("topology: %s is %.1f m from home %s (SNR %.1f dB < %d dB floor)",
				sta.Name, d, home.Name, snr, minClientSNRDB)
		}
	}
	return nil
}

func finitePos(p phy.Position) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}
