package faults

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/dot11"
	"repro/internal/ethernet"
	"repro/internal/ipv4"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Targets names the pieces of an assembled world the engine may break. Any
// field may be nil/zero; Install rejects a schedule that needs a missing
// target, so a partial world (as unit tests build) only has to wire up what
// its schedule touches.
type Targets struct {
	// Medium carries burst-loss faults.
	Medium *phy.Medium
	// AP is the access point crashed by apcrash and silenced by quiet.
	AP *dot11.AP
	// STARadio is the client radio taken down by linkflap.
	STARadio *phy.Radio
	// VictimMAC and BSSID parameterise forged deauths: the storm targets
	// VictimMAC claiming to come from BSSID.
	VictimMAC ethernet.MAC
	BSSID     ethernet.MAC
	// Channel is where the deauther and jammer operate (the real AP's
	// channel), and AttackPos is where they stand.
	Channel   phy.Channel
	AttackPos phy.Position
	// UplinkPorts carry corrupt/dup faults; the engine covers both ends of
	// each cable.
	UplinkPorts []*ethernet.Port
	// Hosts maps names to partitionable IP stacks; a partition fault picks
	// its target with the "host" param, defaulting to DefaultHost.
	Hosts       map[string]*ipv4.Stack
	DefaultHost string
}

// Engine replays a Schedule as kernel events against a set of Targets.
// Everything it does — every injection, every revert, every random draw — is
// scheduled on the kernel and seeded from the kernel RNG, so a chaos run's
// digest is a pure function of (seed, schedule).
type Engine struct {
	kernel *sim.Kernel
	t      Targets
	sched  Schedule
	rng    *sim.RNG

	// depth tracks overlapping windows per kind: apply on 0→1, revert on
	// 1→0, so two overlapping burst windows don't clear each other.
	depth map[Kind]int

	deauther  *attack.Deauther
	jamRadio  *phy.Radio
	jammer    *phy.Jammer
	wireFault *ethernet.FaultProfile

	// OnFault, if set, observes every apply (active=true) and revert
	// (active=false) at its simulated time.
	OnFault func(now sim.Time, inj Injection, active bool)

	// Counters.
	Applied, Reverted uint64
}

// New creates an engine bound to a kernel and its targets. Nothing is
// scheduled (and no RNG state is consumed) until Install.
func New(k *sim.Kernel, t Targets) *Engine {
	if t.DefaultHost == "" {
		t.DefaultHost = "victim"
	}
	return &Engine{kernel: k, t: t, depth: make(map[Kind]int)}
}

// Schedule returns the installed schedule (nil before Install).
func (e *Engine) Schedule() Schedule { return e.sched }

// LastEnd reports when the installed schedule's final fault clears.
func (e *Engine) LastEnd() sim.Time { return e.sched.LastEnd() }

// Install validates the schedule against the targets and schedules every
// occurrence's apply/revert on the kernel. It must be called at most once,
// before the kernel runs past the schedule's first injection.
func (e *Engine) Install(s Schedule) error {
	if e.sched != nil {
		return fmt.Errorf("faults: engine already has a schedule installed")
	}
	for _, inj := range s {
		if err := e.check(inj); err != nil {
			return err
		}
	}
	// One forked stream for all fault randomness (wire corruption offsets,
	// etc.). Forked lazily here so fault-free worlds draw nothing extra.
	e.rng = e.kernel.RNG().Fork()
	e.sched = s
	// The lazy constructors below schedule nothing, so each occurrence's
	// apply/revert pair takes the next two event seqs in schedule order.
	for _, inj := range s {
		if e.needsWireFault(inj.Kind) && e.wireFault == nil {
			e.installWireFault()
		}
		if inj.Kind == KindDeauth && e.deauther == nil {
			e.deauther = attack.NewDeauther(e.kernel, e.t.Medium, e.t.AttackPos, e.t.Channel)
		}
		if inj.Kind == KindJam && e.jamRadio == nil {
			e.jamRadio = e.t.Medium.AddRadio(phy.RadioConfig{
				Name: "fault-jammer", Pos: e.t.AttackPos, Channel: e.t.Channel,
			})
		}
		for occ := 0; occ < inj.Count; occ++ {
			inj := inj
			start := inj.At + sim.Time(occ)*inj.Period
			e.kernel.At(start, func() { e.apply(inj) })
			e.kernel.At(start+inj.Duration, func() { e.revert(inj) })
		}
	}
	return nil
}

// check verifies the targets an injection needs are present.
func (e *Engine) check(inj Injection) error {
	missing := func(what string) error {
		return fmt.Errorf("faults: %s fault needs a %s target", inj.Kind, what)
	}
	switch inj.Kind {
	case KindBurst:
		if e.t.Medium == nil {
			return missing("Medium")
		}
	case KindAPCrash, KindQuiet:
		if e.t.AP == nil {
			return missing("AP")
		}
	case KindLinkFlap:
		if e.t.STARadio == nil {
			return missing("STARadio")
		}
	case KindDeauth, KindJam:
		if e.t.Medium == nil {
			return missing("Medium")
		}
		if inj.Kind == KindDeauth && (e.t.VictimMAC == (ethernet.MAC{}) || e.t.BSSID == (ethernet.MAC{})) {
			return missing("VictimMAC+BSSID")
		}
	case KindCorrupt, KindDup:
		if len(e.t.UplinkPorts) == 0 {
			return missing("UplinkPorts")
		}
	case KindPartition:
		name := inj.Str("host", e.t.DefaultHost)
		if e.t.Hosts[name] == nil {
			return fmt.Errorf("faults: partition fault targets unknown host %q", name)
		}
	}
	return nil
}

// needsWireFault reports whether kind drives the ethernet fault profile.
func (e *Engine) needsWireFault(kind Kind) bool {
	return kind == KindCorrupt || kind == KindDup
}

// installWireFault puts one zeroed profile on every uplink port and its cable
// peer. A zero profile draws no randomness and drops nothing; apply/revert
// just mutate its probabilities.
func (e *Engine) installWireFault() {
	e.wireFault = &ethernet.FaultProfile{RNG: e.rng}
	for _, p := range e.t.UplinkPorts {
		p.SetFaults(e.wireFault)
		if peer := p.Peer(); peer != nil {
			peer.SetFaults(e.wireFault)
		}
	}
}

func (e *Engine) apply(inj Injection) {
	e.depth[inj.Kind]++
	if e.depth[inj.Kind] != 1 {
		return
	}
	e.Applied++
	switch inj.Kind {
	case KindBurst:
		e.t.Medium.SetBurstLoss(&phy.BurstLoss{
			PGoodToBad: inj.Float("pgb", 0.02),
			PBadToGood: inj.Float("pbg", 0.25),
			GoodLoss:   inj.Float("goodloss", 0),
			BadLoss:    inj.Float("loss", 0.9),
		})
	case KindAPCrash:
		e.t.AP.SetDown(true)
	case KindQuiet:
		e.t.AP.SuppressBeacons(true)
	case KindLinkFlap:
		e.t.STARadio.SetDown(true)
	case KindDeauth:
		e.deauther.Flood(e.t.VictimMAC, e.t.BSSID, inj.Dur("interval", 100*sim.Millisecond))
	case KindJam:
		e.jammer = phy.NewJammer(e.kernel, e.jamRadio, int(inj.Float("bytes", 1500)), 0)
	case KindCorrupt:
		e.wireFault.CorruptP = inj.Float("p", 0.01)
	case KindDup:
		e.wireFault.DupP = inj.Float("p", 0.01)
	case KindPartition:
		e.t.Hosts[inj.Str("host", e.t.DefaultHost)].SetPartitioned(true)
	}
	if e.OnFault != nil {
		e.OnFault(e.kernel.Now(), inj, true)
	}
}

func (e *Engine) revert(inj Injection) {
	e.depth[inj.Kind]--
	if e.depth[inj.Kind] != 0 {
		return
	}
	e.Reverted++
	switch inj.Kind {
	case KindBurst:
		e.t.Medium.SetBurstLoss(nil)
	case KindAPCrash:
		e.t.AP.SetDown(false)
	case KindQuiet:
		e.t.AP.SuppressBeacons(false)
	case KindLinkFlap:
		e.t.STARadio.SetDown(false)
	case KindDeauth:
		e.deauther.Stop()
	case KindJam:
		if e.jammer != nil {
			e.jammer.Stop()
			e.jammer = nil
		}
	case KindCorrupt:
		e.wireFault.CorruptP = 0
	case KindDup:
		e.wireFault.DupP = 0
	case KindPartition:
		e.t.Hosts[inj.Str("host", e.t.DefaultHost)].SetPartitioned(false)
	}
	if e.OnFault != nil {
		e.OnFault(e.kernel.Now(), inj, false)
	}
}

// Quiescent reports whether no fault is currently applied (every window that
// opened has closed). The convergence invariant uses it to know the chaos is
// over.
func (e *Engine) Quiescent() bool {
	for _, d := range e.depth {
		if d != 0 {
			return false
		}
	}
	return true
}
