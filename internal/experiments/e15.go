package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// E15 scales the paper's rogue-AP threat from one victim to a campus: a
// generated AP grid with clustered stations, a high-power SSID clone parked
// beside one cluster, and the sharded medium underneath. The table reports,
// per world size, how much of the campus associates, what fraction the rogue
// captures (its reach is one interference neighborhood, however big the
// campus — the capture rate should FALL as the world grows), how much
// station traffic the rogue harvests, and the medium's delivered-frame
// throughput in simulated time. The 4096- and 16384-station rows only run
// at full scale; Quick stops at 1024.

// e15SimTime is the simulated window per world: staggered joins, the scan
// ladder, and several traffic intervals.
const e15SimTime = 10 * sim.Second

// e15Size is one rung of the scale ladder.
type e15Size struct{ aps, stas int }

// e15Sizes is the ladder: each full-scale rung quadruples the station count
// (and AP count with it, keeping cluster size fixed), so the table shows the
// per-neighborhood cost claim across two orders of magnitude.
func e15Sizes(quick bool) []e15Size {
	sizes := []e15Size{{16, 256}, {64, 1024}}
	if !quick {
		sizes = append(sizes, e15Size{256, 4096}, e15Size{1024, 16384})
	}
	return sizes
}

// E15CampusScale: association, rogue capture, and medium throughput at
// campus scale.
func E15CampusScale(s Scale) Table {
	t := Table{
		ID:      "E15",
		Title:   "campus scale: association, rogue capture, medium throughput",
		Columns: []string{"stations", "aps", "assoc%", "captured", "harvested", "frames/s"},
		Notes: []string{
			fmt.Sprintf("campus topology, rogue beside cluster 0, %v simulated per world, mean over trials", e15SimTime.Duration()),
			"captured = stations on the rogue BSSID; its reach stays one neighborhood, so the rate falls as the campus grows",
			// Both limits are measured in EXPERIMENTS.md (E15).
			"frames/s = medium deliveries per simulated second (the sharded gather prunes only campuses wider than ~1.2 km, and overlaps register campus-wide, so cost per frame grows with the campus)",
		},
	}
	sizes := e15Sizes(s.Quick)
	type point struct {
		e15Size
		seed uint64
	}
	var points []point
	for _, sz := range sizes {
		for trial := 0; trial < s.trials(); trial++ {
			points = append(points, point{sz, uint64(trial + 1)})
		}
	}
	results := core.Sweep(points, func(p point) core.CampusResult {
		w := core.NewCampusWorld(core.CampusConfig{
			Seed:  p.seed,
			Rogue: true,
			Topology: core.TopologyConfig{
				Kind: core.TopoCampus, Seed: p.seed,
				APs: p.aps, STAs: p.stas,
			},
		})
		w.Run(e15SimTime)
		return w.Result()
	})
	for i, sz := range sizes {
		var assoc, captured, harvested, delivered float64
		n := float64(s.trials())
		for trial := 0; trial < s.trials(); trial++ {
			r := results[i*s.trials()+trial]
			assoc += float64(r.Associated) / float64(r.STAs)
			captured += float64(r.OnRogue)
			harvested += float64(r.RogueFrames)
			delivered += float64(r.Deliveries)
		}
		t.AddRow(
			fmt.Sprint(sz.stas),
			fmt.Sprint(sz.aps),
			fmt.Sprintf("%.0f%%", 100*assoc/n),
			fmt.Sprintf("%.1f", captured/n),
			fmt.Sprintf("%.1f", harvested/n),
			fmt.Sprintf("%.0f", delivered/n/e15SimTime.Duration().Seconds()),
		)
	}
	return t
}
