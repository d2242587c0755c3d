package dot11

import (
	"bytes"
	"sort"

	"repro/internal/ethernet"
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/wep"
)

// scanKey identifies a scan-cache entry: BSSIDs are not unique when a rogue
// clones one, but (BSSID, channel) pairs are distinguishable to a scanner.
type scanKey struct {
	bssid   ethernet.MAC
	channel phy.Channel
}

// STAState is the client connection state.
type STAState int

// Client states.
const (
	StateIdle STAState = iota
	StateScanning
	StateAuthenticating
	StateAssociating
	StateAssociated
)

// String names the state.
func (s STAState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateScanning:
		return "scanning"
	case StateAuthenticating:
		return "authenticating"
	case StateAssociating:
		return "associating"
	case StateAssociated:
		return "associated"
	}
	return "?"
}

// STAConfig configures a client station.
type STAConfig struct {
	MAC  ethernet.MAC
	SSID string
	// WEPKey enables WEP on data frames (and shared-key auth if
	// SharedKeyAuth is set).
	WEPKey        wep.Key
	SharedKeyAuth bool
	// ExcludeBSS, when set, rejects candidate BSSes during selection. The
	// attacker's client card uses it to avoid associating to its own
	// rogue AP (which advertises the same SSID and cloned BSSID).
	ExcludeBSS func(BSS) bool
	// AutoReconnect rescans after any disconnect (default true via
	// NewSTA; set DisableReconnect to turn off).
	DisableReconnect bool
}

// The reconnect ladder: the first retry after a failed attempt or a
// disconnect waits reconnectBackoffBase, and each consecutive failure
// doubles the delay up to reconnectBackoffMax, plus uniform jitter of half
// the current step so colliding clients desynchronise. A completed
// association resets the ladder. Without it a deauth storm livelocks the
// client in a tight scan loop.
const (
	reconnectBackoffBase = 250 * sim.Millisecond
	reconnectBackoffMax  = 8 * sim.Second
)

// Scan and link-loss timing: a scan listens scanDwellTU on each channel,
// just over a beacon interval, and an associated station disconnects after
// beaconLossTimeout without a beacon.
const (
	scanDwellTU       uint16 = 120
	beaconLossTimeout        = sim.Second
)

// STA is a client station. After Connect it scans, authenticates, associates
// and then exposes an ethernet.NIC for the host's IP stack.
type STA struct {
	*entity
	cfg    STAConfig
	kernel *sim.Kernel
	ivs    wep.IVSource
	state  STAState
	bss    BSS
	nic    *staNIC

	scanResults map[scanKey]BSS
	scanChan    phy.Channel
	lastBeacon  sim.Time
	stepTimeout sim.Timer
	beaconCheck sim.Timer
	// checkBeaconFn is checkBeacon, bound once so the beacon-loss check
	// schedules no fresh closure per beacon interval.
	checkBeaconFn func()
	stopped       bool
	// backoffN counts consecutive failed connection attempts; it drives the
	// exponential reconnect ladder and resets on association.
	backoffN int

	// OnAssociate fires when association completes.
	OnAssociate func(bss BSS)
	// OnDisconnect fires on deauth, disassoc, or beacon loss.
	OnDisconnect func(reason string)

	// Counters.
	ScanCycles      uint64
	AssocCount      uint64
	Disconnects     uint64
	RxICVFailures   uint64
	DeauthsReceived uint64
	Backoffs        uint64
}

// NewSTA creates a station (idle; call Connect to join a network).
func NewSTA(k *sim.Kernel, radio *phy.Radio, cfg STAConfig) *STA {
	// Sequential IVs, as the AP draws them.
	var ivs wep.IVSource = &wep.SequentialIV{}
	if k.InvariantChecksEnabled() && len(cfg.WEPKey) > 0 {
		t := wep.NewIVTracker(ivs, len(cfg.WEPKey))
		ivs = t
		k.RegisterInvariant("wep/iv-policy-sta", t.Check)
	}
	s := &STA{
		entity: newEntity(k, radio, cfg.MAC),
		cfg:    cfg,
		kernel: k,
		ivs:    ivs,
	}
	s.nic = &staNIC{sta: s}
	s.entity.handler = s.onFrame
	s.checkBeaconFn = s.checkBeacon
	return s
}

// State reports the connection state.
func (s *STA) State() STAState { return s.state }

// BSS reports the currently (or last) joined BSS.
func (s *STA) BSS() BSS { return s.bss }

// NIC returns the station's network interface for the host IP stack. It is
// usable once associated; sends while disconnected are dropped.
func (s *STA) NIC() ethernet.NIC { return s.nic }

// MAC returns the station's hardware address.
func (s *STA) MAC() ethernet.MAC { return s.cfg.MAC }

// Stop disables the station.
func (s *STA) Stop() {
	s.stopped = true
	s.cancelTimers()
	s.state = StateIdle
}

func (s *STA) cancelTimers() {
	s.stepTimeout.Cancel()
	s.beaconCheck.Cancel()
}

// Connect begins scanning for the configured SSID. An explicit Connect is a
// fresh start: it resets the reconnect backoff ladder.
func (s *STA) Connect() {
	s.backoffN = 0
	s.connect()
}

// connect starts a scan cycle without touching the backoff ladder — the
// internal entry point retries use.
func (s *STA) connect() {
	if s.stopped {
		return
	}
	s.cancelTimers()
	s.state = StateScanning
	s.scanResults = make(map[scanKey]BSS)
	s.scanChan = phy.MinChannel
	s.ScanCycles++
	s.scanStep()
}

// BackoffLevel reports the current rung of the reconnect ladder (0 after a
// successful association).
func (s *STA) BackoffLevel() int { return s.backoffN }

// retry schedules the next connection attempt after a seeded exponential
// backoff with jitter. Every failure path — empty scan, management timeout,
// auth/assoc rejection, disconnect — funnels through here, so no sequence of
// adversarial frames can pin the client in a zero-delay scan loop.
func (s *STA) retry() {
	if s.stopped {
		return
	}
	if s.backoffN < 20 {
		s.backoffN++
	}
	s.Backoffs++
	s.cancelTimers()
	s.stepTimeout = s.kernel.After(s.backoffDelay(), s.connect)
}

func (s *STA) backoffDelay() sim.Time {
	step := reconnectBackoffBase
	for i := 1; i < s.backoffN && step < reconnectBackoffMax; i++ {
		step *= 2
	}
	if step > reconnectBackoffMax {
		step = reconnectBackoffMax
	}
	return step + s.rng.Jitter(step/2)
}

func (s *STA) scanStep() {
	if s.stopped || s.state != StateScanning {
		return
	}
	if s.scanChan > phy.MaxChannel {
		s.finishScan()
		return
	}
	s.radio.SetChannel(s.scanChan)
	// Active scan: probe, then dwell listening for beacons/responses.
	probe := ProbeReqBody{SSID: s.cfg.SSID}
	s.transmit(Frame{
		Type: TypeManagement, Subtype: SubtypeProbeReq,
		Addr1: ethernet.BroadcastMAC, Addr2: s.cfg.MAC, Addr3: ethernet.BroadcastMAC,
		Body: probe.Marshal(),
	})
	s.stepTimeout = s.kernel.After(sim.Time(scanDwellTU)*TU, func() {
		s.scanChan++
		s.scanStep()
	})
}

func (s *STA) finishScan() {
	best, ok := s.pickBSS()
	if !ok {
		s.retry() // nothing found; back off before the next scan cycle
		return
	}
	s.join(best)
}

// pickBSS takes the strongest matching BSS from the scan results, as real
// client firmware does: the behaviour the rogue AP exploits by simply being
// closer or louder (experiment E1). A BSSID pinned by the client would not
// help, since the rogue clones it (Figure 1 shows both APs as AA:BB:CC:DD).
// Candidates are compared in sorted (BSSID, channel) order so that ties — e.g. a cloned BSSID at the
// exact same RSSI — resolve the same way every run, keeping the simulation a
// pure function of the seed rather than of map iteration order.
func (s *STA) pickBSS() (BSS, bool) {
	keys := make([]scanKey, 0, len(s.scanResults))
	for k := range s.scanResults {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if c := bytes.Compare(a.bssid[:], b.bssid[:]); c != 0 {
			return c < 0
		}
		return a.channel < b.channel
	})
	var best BSS
	found := false
	for _, k := range keys {
		b := s.scanResults[k]
		if b.SSID != s.cfg.SSID {
			continue
		}
		if s.cfg.ExcludeBSS != nil && s.cfg.ExcludeBSS(b) {
			continue
		}
		if !found || b.RSSIDBm > best.RSSIDBm {
			best, found = b, true
		}
	}
	return best, found
}

const mgmtTimeout = 100 * sim.Millisecond

func (s *STA) join(b BSS) {
	s.bss = b
	s.radio.SetChannel(b.Channel)
	s.state = StateAuthenticating
	alg, seq := AuthOpen, uint16(1)
	if s.cfg.SharedKeyAuth && s.cfg.WEPKey != nil {
		alg = AuthSharedKey
	}
	body := AuthBody{Algorithm: alg, Seq: seq}
	s.transmit(Frame{
		Type: TypeManagement, Subtype: SubtypeAuth,
		Addr1: b.BSSID, Addr2: s.cfg.MAC, Addr3: b.BSSID,
		Body: body.Marshal(),
	})
	s.armStepTimeout()
}

func (s *STA) armStepTimeout() {
	s.stepTimeout.Cancel()
	s.stepTimeout = s.kernel.After(mgmtTimeout, func() {
		// Step timed out; back off, then start over.
		if s.state == StateAuthenticating || s.state == StateAssociating {
			s.retry()
		}
	})
}

func (s *STA) onFrame(f Frame, info phy.RxInfo) {
	if s.stopped {
		return
	}
	if f.Addr1 != s.cfg.MAC && !f.Addr1.IsBroadcast() {
		return
	}
	switch f.Type {
	case TypeManagement:
		s.onManagement(f, info)
	case TypeData:
		s.onData(f)
	}
}

func (s *STA) onManagement(f Frame, info phy.RxInfo) {
	switch f.Subtype {
	case SubtypeBeacon, SubtypeProbeResp:
		// The body is read in place: only a stored scan result copies the
		// SSID out.
		body, err := ParseBeacon(f.Body)
		if err != nil {
			return
		}
		switch s.state {
		case StateScanning:
			// Keep the strongest sighting per (BSSID, channel): a cloned
			// BSSID on another channel is a distinct candidate, exactly as
			// in Figure 1.
			key := scanKey{bssid: f.Addr2, channel: phy.Channel(body.Channel)}
			if prev, ok := s.scanResults[key]; !ok || info.RSSIDBm > prev.RSSIDBm {
				s.scanResults[key] = BSS{
					SSID:           string(body.SSID),
					BSSID:          f.Addr2,
					Channel:        phy.Channel(body.Channel),
					RSSIDBm:        info.RSSIDBm,
					Capability:     body.Capability,
					BeaconInterval: body.BeaconInterval,
				}
			}
		case StateAssociated:
			if f.Addr2 == s.bss.BSSID {
				s.lastBeacon = s.kernel.Now()
			}
		}
	case SubtypeAuth:
		s.onAuth(f)
	case SubtypeAssocResp:
		s.onAssocResp(f)
	case SubtypeDeauth, SubtypeDisassoc:
		if s.state == StateAssociated && f.Addr2 == s.bss.BSSID {
			s.DeauthsReceived++
			s.disconnect("deauthenticated by AP")
		}
	}
}

func (s *STA) onAuth(f Frame) {
	if s.state != StateAuthenticating || f.Addr2 != s.bss.BSSID {
		return
	}
	body, err := UnmarshalAuthBody(f.Body)
	if err != nil {
		return
	}
	if body.Status != StatusSuccess {
		s.retry() // rejected; back off, then rescan
		return
	}
	switch {
	case body.Algorithm == AuthOpen && body.Seq == 2:
		s.sendAssocReq()
	case body.Algorithm == AuthSharedKey && body.Seq == 2:
		// Seal the challenge response with WEP (message 3).
		resp := AuthBody{Algorithm: AuthSharedKey, Seq: 3, Status: StatusSuccess, Challenge: body.Challenge}
		sealed := sealBody(s.cfg.WEPKey, s.ivs, resp.Marshal())
		s.transmit(Frame{
			Type: TypeManagement, Subtype: SubtypeAuth, Protected: true,
			Addr1: s.bss.BSSID, Addr2: s.cfg.MAC, Addr3: s.bss.BSSID,
			Body: sealed,
		})
		s.armStepTimeout()
	case body.Algorithm == AuthSharedKey && body.Seq == 4:
		s.sendAssocReq()
	}
}

func (s *STA) sendAssocReq() {
	s.state = StateAssociating
	body := AssocReqBody{Capability: CapESS, SSID: s.cfg.SSID}
	s.transmit(Frame{
		Type: TypeManagement, Subtype: SubtypeAssocReq,
		Addr1: s.bss.BSSID, Addr2: s.cfg.MAC, Addr3: s.bss.BSSID,
		Body: body.Marshal(),
	})
	s.armStepTimeout()
}

func (s *STA) onAssocResp(f Frame) {
	if s.state != StateAssociating || f.Addr2 != s.bss.BSSID {
		return
	}
	body, err := UnmarshalAssocRespBody(f.Body)
	if err != nil {
		return
	}
	if body.Status != StatusSuccess {
		s.retry()
		return
	}
	s.stepTimeout.Cancel()
	s.state = StateAssociated
	s.backoffN = 0
	s.AssocCount++
	s.lastBeacon = s.kernel.Now()
	s.armBeaconCheck()
	if s.OnAssociate != nil {
		s.OnAssociate(s.bss)
	}
}

func (s *STA) armBeaconCheck() {
	interval := sim.Time(s.bss.BeaconInterval) * TU
	if interval == 0 {
		interval = 100 * TU
	}
	s.beaconCheck = s.kernel.After(interval, s.checkBeaconFn)
}

// checkBeacon is the beacon-loss timer: disconnect after beaconLossTimeout
// without a beacon from the joined AP, else check again next interval.
func (s *STA) checkBeacon() {
	if s.state != StateAssociated {
		return
	}
	if s.kernel.Now()-s.lastBeacon > beaconLossTimeout {
		s.disconnect("beacon loss")
		return
	}
	s.armBeaconCheck()
}

func (s *STA) disconnect(reason string) {
	s.Disconnects++
	s.state = StateIdle
	s.cancelTimers()
	if s.OnDisconnect != nil {
		s.OnDisconnect(reason)
	}
	if !s.cfg.DisableReconnect && !s.stopped {
		s.retry()
	}
}

func (s *STA) onData(f Frame) {
	if s.state != StateAssociated || !f.FromDS || f.Addr2 != s.bss.BSSID {
		return
	}
	if f.Addr3 == s.cfg.MAC {
		return // our own broadcast echoed back by the AP
	}
	body := f.Body
	var pb *pkt.Buf // decrypt buffer, released after the synchronous delivery
	if f.Protected {
		if s.cfg.WEPKey == nil {
			return
		}
		pb = s.kernel.BufPool().GetCopy(body)
		if err := wep.OpenInPlace(s.cfg.WEPKey, pb); err != nil {
			s.RxICVFailures++
			pb.Release()
			return
		}
		body = pb.Bytes()
	} else if s.cfg.WEPKey != nil && s.bss.Privacy() {
		return // network requires WEP; drop cleartext
	}
	t, payload, err := DecapsulateLLC(body)
	if err == nil && s.nic.recv != nil {
		s.nic.recv(ethernet.Frame{Dst: f.Addr1, Src: f.Addr3, Type: t, Payload: payload})
	}
	if pb != nil {
		pb.Release()
	}
}

// sendDataBuf transmits a ToDS data frame, encapsulating in place: LLC, then
// optionally WEP, then the MAC header, all pushed into pb's headroom. Takes
// ownership of pb on every path.
//
//simvet:owner transfer releases pb when not associated, else forwards it to the transmit queue
func (s *STA) sendDataBuf(dst ethernet.MAC, t ethernet.EtherType, pb *pkt.Buf) {
	if s.state != StateAssociated {
		pb.Release()
		return
	}
	putLLC(pb.Push(LLCLen), t)
	protected := false
	if s.cfg.WEPKey != nil {
		wep.SealInPlace(s.cfg.WEPKey, s.ivs.NextIV(), 0, pb)
		protected = true
	}
	s.transmitBuf(Frame{
		Type: TypeData, Subtype: SubtypeDataFrame, ToDS: true, Protected: protected,
		Addr1: s.bss.BSSID, Addr2: s.cfg.MAC, Addr3: dst,
	}, pb)
}

// staNIC adapts the station to the ethernet.NIC interface.
type staNIC struct {
	sta  *STA
	recv ethernet.Receiver
}

func (n *staNIC) HWAddr() ethernet.MAC            { return n.sta.cfg.MAC }
func (n *staNIC) MTU() int                        { return ethernet.DefaultMTU }
func (n *staNIC) SetReceiver(r ethernet.Receiver) { n.recv = r }
func (n *staNIC) SendBuf(dst ethernet.MAC, t ethernet.EtherType, pb *pkt.Buf) {
	n.sta.sendDataBuf(dst, t, pb)
}

var _ ethernet.NIC = (*staNIC)(nil)
