// Package detect implements the rogue-AP detection techniques the paper's
// Section 2.3 recommends to network administrators:
//
//   - sequence-control analysis ("These techniques rely on monitoring
//     802.11b Sequence Control numbers"): every 802.11 transmitter stamps
//     frames from a single monotonically increasing 12-bit counter, so two
//     radios claiming one BSSID/MAC betray themselves as two interleaved
//     counters;
//   - beacon fingerprinting: a BSSID seen with conflicting channel,
//     capability, or beacon-interval parameters ("radio site audits");
//   - deauthentication-flood detection, which catches the rogue's
//     "force the client's disassociation" step.
//
// All detectors feed on a dot11.Monitor (an rfmon sensor) and raise Alerts.
package detect

import (
	"fmt"

	"repro/internal/dot11"
	"repro/internal/ethernet"
	"repro/internal/phy"
	"repro/internal/sim"
)

// AlertKind classifies a detection.
type AlertKind int

// Alert kinds.
const (
	AlertSeqAnomaly AlertKind = iota
	AlertBeaconMismatch
	AlertDeauthFlood
)

// String names the kind.
func (k AlertKind) String() string {
	switch k {
	case AlertSeqAnomaly:
		return "sequence-anomaly"
	case AlertBeaconMismatch:
		return "beacon-mismatch"
	case AlertDeauthFlood:
		return "deauth-flood"
	case AlertARPFlipFlop:
		return "arp-flip-flop"
	}
	return "?"
}

// Alert is one detection event.
type Alert struct {
	Kind   AlertKind
	MAC    ethernet.MAC // offending transmitter/BSSID
	At     sim.Time
	Detail string
}

// String formats the alert.
func (a Alert) String() string {
	return fmt.Sprintf("[%v] %v %v: %s", a.At, a.Kind, a.MAC, a.Detail)
}

// Detection thresholds.
const (
	// seqJumpThreshold: a backward jump of at least this many sequence
	// numbers (mod 4096) counts as an anomaly; ordinary loss and retries
	// stay far below it.
	seqJumpThreshold = 64
	// seqAnomaliesToAlert: alert after this many anomalies from one MAC
	// (one anomaly can be a counter reset after a power cycle).
	seqAnomaliesToAlert = 3
	// More than deauthLimit deauth or disassoc frames from one BSSID inside
	// deauthWindow raises an alert.
	deauthWindow = sim.Second
	deauthLimit  = 5
)

// fingerprint is what a BSSID should look like, learned from its first
// sighting.
type fingerprint struct {
	ssid     string
	channel  phy.Channel
	interval uint16
	cap      uint16
}

type seqState struct {
	last      uint16
	seen      bool
	anomalies int
	alerted   bool
}

// Detector is the sensor-side analysis engine. Attach it to a monitor with
// Attach, or feed frames directly with Observe.
type Detector struct {
	kernel *sim.Kernel

	seq      map[ethernet.MAC]*seqState
	prints   map[ethernet.MAC]fingerprint
	deauths  map[ethernet.MAC][]sim.Time
	deauthAl map[ethernet.MAC]bool

	// OnAlert fires for each new alert (also appended to Alerts).
	OnAlert func(Alert)
	// Alerts accumulates everything raised.
	Alerts []Alert

	// FramesSeen counts frames analysed.
	FramesSeen uint64
}

// New creates a detector.
func New(k *sim.Kernel) *Detector {
	return &Detector{
		kernel:   k,
		seq:      make(map[ethernet.MAC]*seqState),
		prints:   make(map[ethernet.MAC]fingerprint),
		deauths:  make(map[ethernet.MAC][]sim.Time),
		deauthAl: make(map[ethernet.MAC]bool),
	}
}

// Attach subscribes the detector to a monitor (replacing its OnFrame).
func (d *Detector) Attach(m *dot11.Monitor) {
	m.OnFrame = func(f dot11.Frame, info phy.RxInfo) { d.Observe(f, info) }
}

// AlertsOf filters collected alerts by kind.
func (d *Detector) AlertsOf(kind AlertKind) []Alert {
	var out []Alert
	for _, a := range d.Alerts {
		if a.Kind == kind {
			out = append(out, a)
		}
	}
	return out
}

func (d *Detector) raise(a Alert) {
	a.At = d.kernel.Now()
	d.Alerts = append(d.Alerts, a)
	if d.OnAlert != nil {
		d.OnAlert(a)
	}
}

// Observe analyses one captured frame.
func (d *Detector) Observe(f dot11.Frame, info phy.RxInfo) {
	d.FramesSeen++
	d.observeSeq(f)
	switch {
	case f.Type == dot11.TypeManagement && f.Subtype == dot11.SubtypeBeacon:
		d.observeBeacon(f, info)
	case f.Type == dot11.TypeManagement &&
		(f.Subtype == dot11.SubtypeDeauth || f.Subtype == dot11.SubtypeDisassoc):
		d.observeDeauth(f)
	}
}

// observeSeq applies sequence-control analysis to the transmitter address.
func (d *Detector) observeSeq(f dot11.Frame) {
	m := f.Addr2
	st := d.seq[m]
	if st == nil {
		st = &seqState{}
		d.seq[m] = st
	}
	if st.seen {
		fwd := (f.Seq - st.last) & 0x0fff
		// A healthy single counter only moves forward a little (allowing
		// for frames the sensor missed); fwd == 0 is a retransmission. A
		// second radio sharing the MAC produces large jumps both ways.
		if fwd != 0 &&
			(fwd > 0x0fff-seqJumpThreshold || // backward
				(fwd > seqJumpThreshold && fwd < 0x0800)) { // huge forward
			st.anomalies++
			if st.anomalies >= seqAnomaliesToAlert && !st.alerted {
				st.alerted = true
				d.raise(Alert{
					Kind: AlertSeqAnomaly, MAC: m,
					Detail: fmt.Sprintf("%d sequence-control anomalies (last jump %d)", st.anomalies, int16(fwd)),
				})
			}
		}
	}
	st.last = f.Seq
	st.seen = true
}

// observeBeacon compares a beacon against the BSSID's learned fingerprint.
// The body is read in place; the SSID is copied out only when a new or
// changed fingerprint is stored.
func (d *Detector) observeBeacon(f dot11.Frame, info phy.RxInfo) {
	body, err := dot11.ParseBeacon(f.Body)
	if err != nil {
		return
	}
	prev, ok := d.prints[f.Addr2]
	if ok && prev.ssid == string(body.SSID) && prev.channel == phy.Channel(body.Channel) &&
		prev.interval == body.BeaconInterval && prev.cap == body.Capability {
		return
	}
	fp := fingerprint{
		ssid:     string(body.SSID),
		channel:  phy.Channel(body.Channel),
		interval: body.BeaconInterval,
		cap:      body.Capability,
	}
	if !ok {
		d.prints[f.Addr2] = fp
		return
	}
	d.raise(Alert{
		Kind: AlertBeaconMismatch, MAC: f.Addr2,
		Detail: fmt.Sprintf("beacon fingerprint changed: %+v -> %+v", prev, fp),
	})
	// Keep the original fingerprint as truth; keep alerting per change
	// is noisy, so update to the latest to only flag transitions.
	d.prints[f.Addr2] = fp
}

// observeDeauth rate-limits deauth/disassoc per claimed source.
func (d *Detector) observeDeauth(f dot11.Frame) {
	m := f.Addr2
	now := d.kernel.Now()
	times := d.deauths[m]
	cutoff := now - deauthWindow
	kept := times[:0]
	for _, t := range times {
		if t >= cutoff {
			kept = append(kept, t)
		}
	}
	kept = append(kept, now)
	d.deauths[m] = kept
	if len(kept) > deauthLimit && !d.deauthAl[m] {
		d.deauthAl[m] = true
		d.raise(Alert{
			Kind: AlertDeauthFlood, MAC: m,
			Detail: fmt.Sprintf("%d deauth/disassoc frames in %v", len(kept), deauthWindow),
		})
	}
}

// Hopper cycles a monitor across channels so one sensor can audit the whole
// band — the "radio site audit" of §2.3.
type Hopper struct {
	monitor *dot11.Monitor
	kernel  *sim.Kernel
	dwell   sim.Time
	stopped bool
}

// NewHopper starts hopping the monitor with the given per-channel dwell.
func NewHopper(k *sim.Kernel, m *dot11.Monitor, dwell sim.Time) *Hopper {
	h := &Hopper{monitor: m, kernel: k, dwell: dwell}
	h.hop(phy.MinChannel)
	return h
}

// Stop halts hopping.
func (h *Hopper) Stop() { h.stopped = true }

func (h *Hopper) hop(c phy.Channel) {
	if h.stopped {
		return
	}
	h.monitor.SetChannel(c)
	next := c + 1
	if next > phy.MaxChannel {
		next = phy.MinChannel
	}
	h.kernel.After(h.dwell, func() { h.hop(next) })
}
