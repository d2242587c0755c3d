package main

import (
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// counter indexes the public per-layer counters the benchmark reads from a
// world after each unit. All of them are simulated quantities, so for a
// given seed and unit sequence they repeat exactly.
type counter int

const (
	cEvents counter = iota
	cEventAllocs
	cEventReuses
	cPendingPeak
	cTransmissions
	cDeliveries
	cSNRDrops
	cCollisions
	cBurstDrops
	cPoolGets
	cPoolReuses
	cMACRetries
	cTxFailed
	cScanCycles
	cBeacons
	cTCPRetransmits
	cVPNRekeys
	numCounters
)

type counters [numCounters]uint64

// add accumulates o; the pending-queue peak is a maximum, the rest are sums.
func (c *counters) add(o counters) {
	for i := range c {
		if counter(i) == cPendingPeak {
			c[i] = max(c[i], o[i])
			continue
		}
		c[i] += o[i]
	}
}

// since is the growth of every cumulative counter from before to c; the
// pending peak keeps c's reading.
func (c counters) since(before counters) counters {
	d := c
	for i := range d {
		if counter(i) != cPendingPeak {
			d[i] -= before[i]
		}
	}
	return d
}

func kernelCounters(k *sim.Kernel, m *phy.Medium) counters {
	var c counters
	c[cEvents] = k.Fired()
	c[cEventAllocs] = k.EventAllocs()
	c[cEventReuses] = k.EventReuses()
	c[cPendingPeak] = uint64(k.Pending())
	c[cTransmissions] = m.Transmissions
	c[cDeliveries] = m.Deliveries
	c[cSNRDrops] = m.SNRDrops
	c[cCollisions] = m.Collisions
	c[cBurstDrops] = m.BurstDrops
	pool := k.BufPool().Stats()
	c[cPoolGets] = pool.Gets
	c[cPoolReuses] = pool.Reuses
	return c
}

func (c *counters) addSTA(s *dot11.STA) {
	if s == nil {
		return
	}
	c[cMACRetries] += s.MACRetries
	c[cTxFailed] += s.TxFailed
	c[cScanCycles] += s.ScanCycles
}

func (c *counters) addAP(a *dot11.AP) {
	if a == nil {
		return
	}
	c[cMACRetries] += a.MACRetries
	c[cTxFailed] += a.TxFailed
	c[cBeacons] += a.Beacons
}

func (c *counters) addTCP(s *tcp.Stack) {
	if s != nil {
		c[cTCPRetransmits] += s.Retransmits
	}
}

// worldCounters reads a single-victim world: its real AP, the victim, the
// rogue kit when planted, every wired host's TCP stack and both VPN ends.
func worldCounters(w *core.World) counters {
	c := kernelCounters(w.Kernel, w.Medium)
	c.addAP(w.CorpAP)
	if w.Victim != nil {
		c.addSTA(w.Victim.STA)
		c.addTCP(w.Victim.TCP)
	}
	if w.Rogue != nil {
		c.addAP(w.Rogue.AP)
		c.addSTA(w.Rogue.STA)
		c.addTCP(w.Rogue.TCP)
	}
	for _, h := range []*core.Host{w.Router, w.Web, w.VPNHost, w.Relay1, w.Relay2} {
		if h != nil {
			c.addTCP(h.TCP)
		}
	}
	if w.VictimVPN != nil {
		c[cVPNRekeys] += w.VictimVPN.Rekeys
	}
	if w.VPNServer != nil {
		c[cVPNRekeys] += w.VPNServer.Rekeys
	}
	return c
}

// campusCounters reads a campus world: every AP, every station and the
// rogue. Campus worlds carry no TCP or VPN traffic.
func campusCounters(w *core.CampusWorld) counters {
	c := kernelCounters(w.Kernel, w.Medium)
	for _, ap := range w.APs {
		c.addAP(ap)
	}
	for _, sta := range w.STAs {
		c.addSTA(sta)
	}
	c.addAP(w.Rogue)
	return c
}
