package phy

import (
	"math"
	"sort"
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// newFlatMedium builds a medium whose delivery walks every attached radio in
// attach order: the pre-shard O(radios) medium, kept as the differential
// oracle for the sharded index and as the benchmark floor.
func newFlatMedium(k *sim.Kernel, cfg Config) *Medium {
	m := NewMedium(k, cfg)
	m.flatScan, m.spatial = true, false
	return m
}

// refGatherInto is the comparison-sort gather the bitset walk replaced,
// kept verbatim as the oracle: append the neighborhood's member lists (or
// probed grid cells), then sort by global attach index.
func refGatherInto(m *Medium, cand []*Radio, tx *transmission) []*Radio {
	lo, hi := channelNeighborhood(tx.channel)
	if !m.spatial {
		// Shadowing mode: reception at any distance is a draw, so every
		// radio in the channel neighborhood participates.
		for ch := lo; ch <= hi; ch++ {
			cand = append(cand, m.shards[ch].radios...)
		}
	} else {
		rad := searchRadius(m.decodeReach(tx.powerDBm))
		p := tx.src.pos
		cx0 := int32(math.Floor((p.X - rad) / m.cellSize))
		cx1 := int32(math.Floor((p.X + rad) / m.cellSize))
		cy0 := int32(math.Floor((p.Y - rad) / m.cellSize))
		cy1 := int32(math.Floor((p.Y + rad) / m.cellSize))
		cells := int64(cx1-cx0+1) * int64(cy1-cy0+1)
		for ch := lo; ch <= hi; ch++ {
			s := &m.shards[ch]
			if len(s.radios) == 0 {
				continue
			}
			if int64(len(s.radios)) <= cells {
				// Sparse shard: scanning the member list beats probing more
				// cells than it has radios. Safe either way — the decode
				// floor, not the grid, is the exact filter.
				cand = append(cand, s.radios...)
				continue
			}
			for cy := cy0; cy <= cy1; cy++ {
				for cx := cx0; cx <= cx1; cx++ {
					cand = append(cand, s.grid[gridKey{cx, cy}]...)
				}
			}
		}
	}
	sort.Slice(cand, func(i, j int) bool { return cand[i].idx < cand[j].idx })
	return cand
}

// gatherBranches reports which gather branches tx's neighborhood takes in a
// spatial medium: a sparse shard's member list, a dense shard whose cell box
// the search rectangle covers (member list too), a grid-cell probe, or
// several.
func gatherBranches(m *Medium, tx *transmission) (sparse, covered, grid bool) {
	rad := searchRadius(tx.reach)
	p := tx.src.pos
	rect := cellRect{
		x0: int32(math.Floor((p.X - rad) / m.cellSize)), y0: int32(math.Floor((p.Y - rad) / m.cellSize)),
		x1: int32(math.Floor((p.X + rad) / m.cellSize)), y1: int32(math.Floor((p.Y + rad) / m.cellSize)),
	}
	cells := int64(rect.x1-rect.x0+1) * int64(rect.y1-rect.y0+1)
	lo, hi := channelNeighborhood(tx.channel)
	for ch := lo; ch <= hi; ch++ {
		s := &m.shards[ch]
		switch n := int64(len(s.radios)); {
		case n == 0:
		case n <= cells:
			sparse = true
		case rect.covers(s.box):
			covered = true
		default:
			grid = true
		}
	}
	return sparse, covered, grid
}

func sameRadios(a, b []*Radio) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGatherMatchesSortedReference drives random seeded sequences of
// attaches, retunes, sends and kernel advances, and after every send
// compares the bitset gather with the sort-based oracle. Channels lean on
// the 1/6/11 plan so some shards outgrow the probed rectangle while others
// stay sparse (member-bitset OR). Every third seed packs the world into
// ±300 m, where the rectangle covers a dense shard's whole cell box
// (member-bitset OR again); the rest span ±1.5 km, where dense shards probe
// the grid cells the rectangle and the box share. A share of radios
// transmit 6 dB hot, as a rogue does, which widens the rectangle; shadowing
// mode ORs in the whole neighborhood.
func TestGatherMatchesSortedReference(t *testing.T) {
	var sends, sparseHits, coveredHits, gridHits, hotSends int
	for seed := uint64(1); seed <= 12; seed++ {
		for _, sigma := range []float64{0, 3} {
			rng := sim.NewRNG(seed)
			k := sim.NewKernel(seed)
			m := NewMedium(k, Config{ShadowingSigmaDB: sigma})
			randChannel := func() Channel {
				if rng.Bool(0.7) {
					return [3]Channel{1, 6, 11}[rng.Intn(3)]
				}
				return MinChannel + Channel(rng.Intn(int(MaxChannel)))
			}
			// ±1.5 km spans several ~400 m grid cells; ±300 m two or so.
			half := 1500.0
			if seed%3 == 0 {
				half = 300
			}
			randPos := func() Position {
				return Position{X: (rng.Float64()*2 - 1) * half, Y: (rng.Float64()*2 - 1) * half}
			}
			addRadio := func() {
				power := float64(defaultTxPowerDBm)
				if rng.Bool(0.1) {
					power += 6
				}
				r := m.AddRadio(RadioConfig{Name: "r", Pos: randPos(), Channel: randChannel(), TxPowerDBm: power})
				r.SetReceiver(func(data []byte, info RxInfo) {})
			}
			for i := 0; i < 60; i++ {
				addRadio()
			}
			var ref []*Radio
			for op := 0; op < 400; op++ {
				radios := m.Radios()
				r := radios[rng.Intn(len(radios))]
				switch rng.Intn(10) {
				case 0, 3:
					addRadio()
				case 1, 2:
					r.SetChannel(randChannel())
				case 4:
					k.RunFor(sim.Time(rng.Intn(2000)) * sim.Microsecond)
				default:
					r.SendBuf(pkt.Wrap(make([]byte, 100+rng.Intn(400))), Rate11Mbps)
					active := m.shard(r.channel).active
					tx := active[len(active)-1]
					ref = refGatherInto(m, ref[:0], tx)
					got := m.gatherCandidates(tx)
					if !sameRadios(got, ref) {
						t.Fatalf("seed %d sigma %v op %d: gather %d candidates, oracle %d", seed, sigma, op, len(got), len(ref))
					}
					sends++
					if tx.powerDBm > defaultTxPowerDBm {
						hotSends++
					}
					if m.spatial {
						sp, cov, gr := gatherBranches(m, tx)
						if sp {
							sparseHits++
						}
						if cov {
							coveredHits++
						}
						if gr {
							gridHits++
						}
					}
				}
			}
			k.Run()
		}
	}
	t.Logf("%d sends: %d sparse, %d covered, %d grid, %d hot", sends, sparseHits, coveredHits, gridHits, hotSends)
	if sparseHits == 0 || coveredHits == 0 || gridHits == 0 || hotSends == 0 {
		t.Fatalf("weak coverage: %d sends, %d sparse, %d covered, %d grid, %d hot",
			sends, sparseHits, coveredHits, gridHits, hotSends)
	}
}
