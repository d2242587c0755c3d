package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dot11"
	"repro/internal/ethernet"
	"repro/internal/faults"
	"repro/internal/phy"
	"repro/internal/sim"
)

// CampusWorld instantiates a generated Topology on the sharded medium: many
// APs sharing one ESS, clustered stations that scan/join on their own
// staggered schedules and then offer traffic per their class, and optionally
// a rogue AP cloning the campus SSID at higher power next to one cluster
// (the paper's §4 attack, scaled from one victim to a crowd). It is the
// workload behind the campus scenarios, experiment E15, and the
// BenchmarkCampusWorld throughput bench — large enough that the medium's
// per-neighborhood delivery cost, not the station count, must carry the run.

// CampusSSID is the ESS every campus AP (and the rogue) advertises.
const CampusSSID = "CAMPUS"

// campusRoguePowerDBm is the campus rogue's transmit power: a 6 dB shout
// over the campus radios' 15 dBm.
const campusRoguePowerDBm = 21

// CampusRogueBSSID is the rogue AP's own BSSID. It deliberately does NOT
// clone a real AP's address: capture is counted by which BSSID a station
// lands on, and a distinct address keeps that observable.
var CampusRogueBSSID = ethernet.MAC{0x02, 0xca, 0xff, 0x00, 0x00, 0x01}

// CampusConfig configures NewCampusWorld.
type CampusConfig struct {
	// Topology describes the layout; Topology.Seed defaults to Seed.
	Topology TopologyConfig
	// Seed seeds the kernel (and everything downstream of it).
	Seed uint64
	// Checks enables kernel invariant checking.
	Checks bool

	// Rogue plants a high-power AP (campusRoguePowerDBm) cloning
	// CampusSSID beside AP 0's cluster; stations that hear it louder than
	// their home AP join it.
	Rogue bool

	// Faults, when set, is a fault schedule (builtin name or raw string)
	// armed against station 0 and its home AP — the campus analogue of
	// the single-victim chaos worlds.
	Faults string
}

// CampusWorld is an assembled campus.
type CampusWorld struct {
	Cfg    CampusConfig
	Topo   *Topology
	Kernel *sim.Kernel
	Medium *phy.Medium
	APs    []*dot11.AP
	STAs   []*dot11.STA
	Rogue  *dot11.AP
	Faults *faults.Engine

	// APFrames counts data frames each AP's host side received from its
	// stations — the campus's delivered-traffic measure.
	APFrames []uint64
	// RogueFrames counts station data frames the rogue harvested.
	RogueFrames uint64

	staRadios []*phy.Radio
	// rng drives traffic jitter. It is forked from the kernel RNG at
	// construction and drawn from only inside kernel events, so the draw
	// sequence is a pure function of the seed.
	rng *sim.RNG
}

// NewCampusWorld generates (or validates) the topology and assembles the
// world. Construction-time misconfiguration panics, like NewWorld.
func NewCampusWorld(cfg CampusConfig) *CampusWorld {
	w, err := newCampusWorld(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// newCampusWorld assembles the campus, reporting a fault schedule the
// campus cannot host as an error.
func newCampusWorld(cfg CampusConfig) (*CampusWorld, error) {
	if cfg.Topology.Seed == 0 {
		cfg.Topology.Seed = cfg.Seed
	}
	topo := GenerateTopology(cfg.Topology)
	if err := topo.Validate(); err != nil {
		panic(err)
	}

	w := &CampusWorld{Cfg: cfg, Topo: topo}
	w.Kernel = sim.NewKernel(cfg.Seed)
	w.Kernel.SetInvariantChecks(cfg.Checks)
	w.Medium = phy.NewMedium(w.Kernel, phy.Config{})
	w.rng = w.Kernel.RNG().Fork()
	w.APFrames = make([]uint64, len(topo.APs))

	for i, p := range topo.APs {
		radio := w.Medium.AddRadio(phy.RadioConfig{Name: p.Name, Pos: p.Pos, Channel: p.Channel})
		ap := dot11.NewAP(w.Kernel, radio, dot11.APConfig{
			SSID: CampusSSID, BSSID: p.BSSID, Channel: p.Channel,
		})
		i := i
		ap.HostNIC().SetReceiver(func(f ethernet.Frame) { w.APFrames[i]++ })
		w.APs = append(w.APs, ap)
	}

	if cfg.Rogue {
		// Beside AP 0's cluster, off-center so part of the cluster hears
		// the rogue closer than home; the power advantage does the rest.
		home := topo.APs[0]
		ch := phy.Channel(6)
		if home.Channel == 6 {
			ch = 11
		}
		radio := w.Medium.AddRadio(phy.RadioConfig{
			Name:    "campus-rogue",
			Pos:     phy.Position{X: home.Pos.X + 6, Y: home.Pos.Y + 4},
			Channel: ch, TxPowerDBm: campusRoguePowerDBm,
		})
		w.Rogue = dot11.NewAP(w.Kernel, radio, dot11.APConfig{
			SSID: CampusSSID, BSSID: CampusRogueBSSID, Channel: ch,
		})
		w.Rogue.HostNIC().SetReceiver(func(f ethernet.Frame) { w.RogueFrames++ })
	}

	// Each station's join, then its traffic kickoff, in placement order.
	// NewSTA and AddRadio schedule nothing, so these are the only events
	// construction queues and their seqs follow station order.
	for i, p := range topo.STAs {
		radio := w.Medium.AddRadio(phy.RadioConfig{Name: p.Name, Pos: p.Pos, Channel: 1})
		sta := dot11.NewSTA(w.Kernel, radio, dot11.STAConfig{
			MAC: p.MAC, SSID: CampusSSID, // JoinBestRSSI: the rogue's opening
		})
		w.STAs = append(w.STAs, sta)
		w.staRadios = append(w.staRadios, radio)
		w.Kernel.At(p.JoinAt, sta.Connect)
		w.scheduleTraffic(i, sta, p)
	}

	if cfg.Faults != "" {
		if err := w.installFaults(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// scheduleTraffic schedules the station's offered-load kickoff: nothing for
// idle, one 256-byte frame per ~second for light, a 4-frame 512-byte burst
// per ~two seconds for bursty. Frames go to the joined BSSID (whoever that
// turned out to be — traffic into a rogue is exactly what it harvests), and
// burst frames are paced 2 ms apart so a station never collides with
// itself. The jitter draw happens here, at construction, in station order —
// part of the seed's draw sequence.
func (w *CampusWorld) scheduleTraffic(i int, sta *dot11.STA, p STAPlacement) {
	var interval sim.Time
	var frames, size int
	switch p.Traffic {
	case TrafficLight:
		interval, frames, size = sim.Second, 1, 256
	case TrafficBursty:
		interval, frames, size = 2*sim.Second, 4, 512
	default:
		return
	}
	payload := make([]byte, size)
	binary.BigEndian.PutUint32(payload, uint32(i))
	var tick func()
	tick = func() {
		if sta.State() == dot11.StateAssociated {
			bssid := sta.BSS().BSSID
			for n := 0; n < frames; n++ {
				n := n
				w.Kernel.After(sim.Time(n)*2*sim.Millisecond, func() {
					if sta.State() != dot11.StateAssociated {
						return
					}
					payload[4] = byte(n)
					sta.NIC().SendBuf(bssid, ethernet.TypeIPv4, w.Kernel.BufPool().GetCopy(payload))
				})
			}
		}
		w.Kernel.After(interval+w.rng.Jitter(interval/2), tick)
	}
	w.Kernel.At(p.JoinAt+interval/2+w.rng.Jitter(interval), tick)
}

// installFaults arms the chaos engine against the campus: station 0 is the
// victim, its home AP the crash/quiet target — the same roles the
// single-victim worlds give the corp AP and the victim laptop.
func (w *CampusWorld) installFaults() error {
	sched, err := faults.Resolve(w.Cfg.Faults)
	if err != nil {
		return err
	}
	if len(w.STAs) == 0 {
		return fmt.Errorf("campus: fault schedule %q needs at least one station", w.Cfg.Faults)
	}
	victim := w.Topo.STAs[0]
	home := w.Topo.APs[victim.Home]
	eng := faults.New(w.Kernel, faults.Targets{
		Medium:    w.Medium,
		AP:        w.APs[victim.Home],
		STARadio:  w.staRadios[0],
		VictimMAC: victim.MAC,
		BSSID:     home.BSSID,
		Channel:   home.Channel,
		AttackPos: phy.Position{X: victim.Pos.X + 2, Y: victim.Pos.Y},
	})
	if err := eng.Install(sched); err != nil {
		return err
	}
	w.Faults = eng
	return nil
}

// Run advances the campus by d.
func (w *CampusWorld) Run(d sim.Time) { w.Kernel.RunFor(d) }

// CampusResult is a snapshot of the campus's observables.
type CampusResult struct {
	APs, STAs int
	// Associated counts stations currently in the associated state (on
	// any AP, rogue included).
	Associated int
	// OnRogue counts stations associated to the rogue BSSID.
	OnRogue int
	// APFrames sums data frames delivered to legitimate AP hosts;
	// RogueFrames is what the rogue harvested instead.
	APFrames    uint64
	RogueFrames uint64
	// Deliveries is the medium's total frame-delivery count — the
	// throughput denominator E15 reports.
	Deliveries uint64
}

// CaptureRate is the fraction of the campus the rogue holds.
func (r CampusResult) CaptureRate() float64 {
	if r.STAs == 0 {
		return 0
	}
	return float64(r.OnRogue) / float64(r.STAs)
}

// Result reads the campus observables at the current instant.
func (w *CampusWorld) Result() CampusResult {
	r := CampusResult{
		APs: len(w.APs), STAs: len(w.STAs),
		RogueFrames: w.RogueFrames,
		Deliveries:  w.Medium.Deliveries,
	}
	for _, sta := range w.STAs {
		if sta.State() != dot11.StateAssociated {
			continue
		}
		r.Associated++
		if w.Rogue != nil && sta.BSS().BSSID == CampusRogueBSSID {
			r.OnRogue++
		}
	}
	for _, n := range w.APFrames {
		r.APFrames += n
	}
	return r
}

// campusScenarioScale keeps the named scenarios small enough for the
// determinism harness (which replays every named scenario several times per
// seed); E15 runs the same world at 256/1k/4k stations.
const (
	campusScenarioAPs  = 12
	campusScenarioSTAs = 72
)

// campusScenarioDuration covers the staggered joins, the scan/associate
// window, and several traffic intervals.
const campusScenarioDuration = 12 * sim.Second

// runCampusScenario drives the campus and campus-rogue scenarios.
func runCampusScenario(name string, seed uint64, opts ScenarioOpts) (*ScenarioOutcome, error) {
	cfg := CampusConfig{
		Seed:   seed,
		Checks: opts.Checks,
		Rogue:  name == "campus-rogue",
		Faults: opts.Faults,
		Topology: TopologyConfig{
			Kind: TopoCampus, Seed: seed,
			APs: campusScenarioAPs, STAs: campusScenarioSTAs,
		},
	}
	w, err := newCampusWorld(cfg)
	if err != nil {
		return nil, err
	}
	o := &ScenarioOutcome{Name: name, Campus: w}

	w.Run(campusScenarioDuration)
	quiescent := true
	if w.Faults != nil {
		quiescent = settleFaults(w.Kernel, w.Faults)
	}

	r := w.Result()
	o.CampusResult = r
	o.milestonef("campus up: %d/%d stations associated across %d APs (%d data frames bridged)",
		r.Associated, r.STAs, r.APs, r.APFrames)
	if cfg.Rogue {
		o.milestonef("rogue holds %d/%d stations (%.0f%% capture, %d frames harvested)",
			r.OnRogue, r.STAs, 100*r.CaptureRate(), r.RogueFrames)
	}
	o.Converged = quiescent && r.Associated == r.STAs
	if w.Faults != nil {
		o.milestonef("chaos converged: %v (faults applied %d, reverted %d)",
			o.Converged, w.Faults.Applied, w.Faults.Reverted)
	}
	o.Digest = w.Kernel.Digest()
	return o, nil
}
