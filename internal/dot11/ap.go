package dot11

import (
	"bytes"

	"repro/internal/ethernet"
	"repro/internal/phy"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/wep"
)

// APConfig configures an access point.
type APConfig struct {
	SSID    string
	BSSID   ethernet.MAC
	Channel phy.Channel
	// WEPKey, when set, requires WEP on data frames and advertises the
	// privacy capability. Shared-key authentication is offered too.
	WEPKey wep.Key
	// MACAllow, when non-nil, is the MAC-filtering ACL: only listed
	// stations may authenticate (paper §2.1: "keeping honest people
	// honest").
	MACAllow []ethernet.MAC
}

// beaconIntervalTU is every AP's beacon interval (≈102.4 ms).
const beaconIntervalTU uint16 = 100

// stationState tracks one client through the 802.11 state machine.
type stationState struct {
	authenticated bool
	associated    bool
	aid           uint16
	challenge     []byte // outstanding shared-key challenge
}

// AP is an infrastructure-mode access point. It bridges three attachment
// points at L2: the wireless BSS, an optional wired uplink, and a host-side
// virtual NIC (the wlan0 a Linux hostap gateway routes through — the rogue
// uses this).
type AP struct {
	*entity
	cfg      APConfig
	kernel   *sim.Kernel
	ivs      wep.IVSource
	stations map[ethernet.MAC]*stationState
	nextAID  uint16
	host     *apHostNIC
	uplink   *ethernet.Port
	beacon   sim.Timer
	// beaconFn is beaconTick, bound once so the beacon cycle schedules no
	// fresh closure per interval.
	beaconFn func()
	started  sim.Time
	stopped  bool
	down     bool
	quiet    bool

	// OnAssociate, if set, fires when a station completes association.
	OnAssociate func(sta ethernet.MAC)
	// PortGate, if set, is consulted for every frame a station sends into
	// the distribution system; returning false drops it. An 802.1x
	// authenticator uses it to block traffic (other than EAPOL) from
	// unauthorized ports. Gated frames are counted in GateDrops.
	PortGate func(src ethernet.MAC, t ethernet.EtherType) bool

	// Counters for experiments.
	Beacons           uint64
	AuthRejects       uint64
	Associations      uint64
	ICVFailures       uint64
	Class3Errors      uint64
	UnprotectedDrops  uint64
	GateDrops         uint64
	Crashes           uint64
	SuppressedBeacons uint64
}

// NewAP creates and starts an access point: it begins beaconing immediately.
func NewAP(k *sim.Kernel, radio *phy.Radio, cfg APConfig) *AP {
	// Sequential IVs, the Airsnort-friendly choice early firmware made.
	var ivs wep.IVSource = &wep.SequentialIV{}
	if k.InvariantChecksEnabled() && len(cfg.WEPKey) > 0 {
		t := wep.NewIVTracker(ivs, len(cfg.WEPKey))
		ivs = t
		k.RegisterInvariant("wep/iv-policy-ap", t.Check)
	}
	radio.SetChannel(cfg.Channel)
	ap := &AP{
		entity:   newEntity(k, radio, cfg.BSSID),
		cfg:      cfg,
		kernel:   k,
		ivs:      ivs,
		stations: make(map[ethernet.MAC]*stationState),
		started:  k.Now(),
	}
	ap.host = &apHostNIC{ap: ap}
	ap.entity.handler = ap.onFrame
	ap.beaconFn = ap.beaconTick
	ap.scheduleBeacon()
	return ap
}

// Stop silences the AP (no more beacons or responses).
func (ap *AP) Stop() {
	ap.stopped = true
	ap.beacon.Cancel()
}

// SetDown crashes the AP (true) or restarts it (false) — the apcrash fault.
// A crash is a reboot: the radio dies mid-air, beacons stop, and all station
// state is forgotten, so previously associated clients come back as class-3
// offenders until they reassociate. Restart resumes beaconing from a fresh
// timestamp epoch. Distinct from Stop, which is permanent decommissioning.
func (ap *AP) SetDown(down bool) {
	if down == ap.down || ap.stopped {
		return
	}
	ap.down = down
	if down {
		ap.Crashes++
		ap.radio.SetDown(true)
		ap.beacon.Cancel()
		ap.stations = make(map[ethernet.MAC]*stationState)
	} else {
		ap.radio.SetDown(false)
		ap.started = ap.kernel.Now()
		ap.scheduleBeacon()
	}
}

// Down reports whether the AP is currently crashed.
func (ap *AP) Down() bool { return ap.down }

// SuppressBeacons stalls (true) or resumes (false) the beacon generator
// without touching station state — the quiet fault. Probe responses still
// work, so clients that lose the beacon heartbeat recover by actively
// rescanning.
func (ap *AP) SuppressBeacons(on bool) { ap.quiet = on }

// HostNIC returns the AP host's virtual interface (MAC = BSSID). The machine
// running the AP — the CORP gateway or the attacker's laptop — attaches its
// IP stack here.
func (ap *AP) HostNIC() ethernet.NIC { return ap.host }

// AttachUplink bridges the BSS to a wired port (the legitimate AP's LAN
// connection). The AP forwards frames between air and wire preserving
// original source addresses, like any L2 bridge.
func (ap *AP) AttachUplink(p *ethernet.Port) {
	ap.uplink = p
	p.SetPromiscuous(true) // a bridge must see frames for wireless clients
	p.SetReceiver(ap.onUplinkFrame)
}

// IsAssociated reports whether mac is an associated client.
func (ap *AP) IsAssociated(mac ethernet.MAC) bool {
	st, ok := ap.stations[mac]
	return ok && st.associated
}

func (ap *AP) capability() uint16 {
	c := CapESS
	if ap.cfg.WEPKey != nil {
		c |= CapPrivacy
	}
	return c
}

func (ap *AP) scheduleBeacon() {
	ap.beacon = ap.kernel.After(sim.Time(beaconIntervalTU)*TU, ap.beaconFn)
}

// beaconTick is the beacon timer: send, then schedule the next.
func (ap *AP) beaconTick() {
	ap.sendBeacon()
	ap.scheduleBeacon()
}

func (ap *AP) sendBeacon() {
	if ap.stopped || ap.down {
		return
	}
	if ap.quiet {
		ap.SuppressedBeacons++
		return
	}
	ap.Beacons++
	ap.transmitBeaconBody(SubtypeBeacon, ethernet.BroadcastMAC)
}

// transmitBeaconBody sends a beacon or probe response to dst, writing the
// body straight into the pooled frame buffer and the MAC header into its
// headroom.
func (ap *AP) transmitBeaconBody(sub Subtype, dst ethernet.MAC) {
	body := BeaconBody{
		Timestamp:      uint64((ap.kernel.Now() - ap.started) / sim.Microsecond),
		BeaconInterval: beaconIntervalTU,
		Capability:     ap.capability(),
		SSID:           ap.cfg.SSID,
		Channel:        byte(ap.cfg.Channel),
	}
	pb := ap.kernel.BufPool().Get()
	body.put(pb.Extend(body.wireLen()))
	ap.transmitBuf(Frame{
		Type: TypeManagement, Subtype: sub,
		Addr1: dst, Addr2: ap.cfg.BSSID, Addr3: ap.cfg.BSSID,
	}, pb)
}

// macAllowed applies the ACL.
func (ap *AP) macAllowed(mac ethernet.MAC) bool {
	if ap.cfg.MACAllow == nil {
		return true
	}
	for _, m := range ap.cfg.MACAllow {
		if m == mac {
			return true
		}
	}
	return false
}

func (ap *AP) onFrame(f Frame, info phy.RxInfo) {
	if ap.stopped || ap.down {
		return
	}
	// MAC-layer address filter: frames for us or broadcast.
	if f.Addr1 != ap.cfg.BSSID && !f.Addr1.IsBroadcast() {
		return
	}
	switch f.Type {
	case TypeManagement:
		ap.onManagement(f)
	case TypeData:
		ap.onData(f)
	}
}

func (ap *AP) onManagement(f Frame) {
	switch f.Subtype {
	case SubtypeProbeReq:
		body, err := UnmarshalProbeReqBody(f.Body)
		if err != nil {
			return
		}
		if body.SSID != "" && body.SSID != ap.cfg.SSID {
			return
		}
		ap.transmitBeaconBody(SubtypeProbeResp, f.Addr2)
	case SubtypeAuth:
		ap.onAuth(f)
	case SubtypeAssocReq:
		ap.onAssocReq(f)
	case SubtypeDeauth, SubtypeDisassoc:
		// A client leaving (or a forged frame claiming so).
		if st, ok := ap.stations[f.Addr2]; ok {
			st.associated = false
			if f.Subtype == SubtypeDeauth {
				st.authenticated = false
			}
		}
	}
}

func (ap *AP) onAuth(f Frame) {
	sta := f.Addr2
	reject := func(alg, seq, status uint16) {
		ap.AuthRejects++
		body := AuthBody{Algorithm: alg, Seq: seq, Status: status}
		ap.transmit(Frame{
			Type: TypeManagement, Subtype: SubtypeAuth,
			Addr1: sta, Addr2: ap.cfg.BSSID, Addr3: ap.cfg.BSSID,
			Body: body.Marshal(),
		})
	}
	// Shared-key message 3 arrives WEP-sealed.
	var body AuthBody
	var err error
	if f.Protected {
		if ap.cfg.WEPKey == nil {
			return
		}
		plain, werr := wep.Open(ap.cfg.WEPKey, f.Body)
		if werr != nil {
			ap.ICVFailures++
			reject(AuthSharedKey, 4, StatusChallengeFail)
			return
		}
		body, err = UnmarshalAuthBody(plain)
	} else {
		body, err = UnmarshalAuthBody(f.Body)
	}
	if err != nil {
		return
	}
	if !ap.macAllowed(sta) {
		reject(body.Algorithm, body.Seq+1, StatusUnauthorized)
		return
	}
	st := ap.stations[sta]
	if st == nil {
		st = &stationState{}
		ap.stations[sta] = st
	}
	switch {
	case body.Algorithm == AuthOpen && body.Seq == 1:
		st.authenticated = true
		resp := AuthBody{Algorithm: AuthOpen, Seq: 2, Status: StatusSuccess}
		ap.transmit(Frame{
			Type: TypeManagement, Subtype: SubtypeAuth,
			Addr1: sta, Addr2: ap.cfg.BSSID, Addr3: ap.cfg.BSSID,
			Body: resp.Marshal(),
		})
	case body.Algorithm == AuthSharedKey && body.Seq == 1:
		if ap.cfg.WEPKey == nil {
			reject(AuthSharedKey, 2, StatusAuthAlgMismatch)
			return
		}
		st.challenge = make([]byte, 128)
		ap.rng.Bytes(st.challenge)
		resp := AuthBody{Algorithm: AuthSharedKey, Seq: 2, Status: StatusSuccess, Challenge: st.challenge}
		ap.transmit(Frame{
			Type: TypeManagement, Subtype: SubtypeAuth,
			Addr1: sta, Addr2: ap.cfg.BSSID, Addr3: ap.cfg.BSSID,
			Body: resp.Marshal(),
		})
	case body.Algorithm == AuthSharedKey && body.Seq == 3:
		if st.challenge == nil || !bytes.Equal(body.Challenge, st.challenge) {
			reject(AuthSharedKey, 4, StatusChallengeFail)
			return
		}
		st.challenge = nil
		st.authenticated = true
		resp := AuthBody{Algorithm: AuthSharedKey, Seq: 4, Status: StatusSuccess}
		ap.transmit(Frame{
			Type: TypeManagement, Subtype: SubtypeAuth,
			Addr1: sta, Addr2: ap.cfg.BSSID, Addr3: ap.cfg.BSSID,
			Body: resp.Marshal(),
		})
	}
}

func (ap *AP) onAssocReq(f Frame) {
	sta := f.Addr2
	st := ap.stations[sta]
	status := StatusSuccess
	body, err := UnmarshalAssocReqBody(f.Body)
	if err != nil {
		return
	}
	switch {
	case st == nil || !st.authenticated:
		status = StatusUnauthorized
	case body.SSID != ap.cfg.SSID:
		status = StatusUnspecified
	}
	var aid uint16
	if status == StatusSuccess {
		ap.nextAID++
		aid = ap.nextAID
		st.associated = true
		st.aid = aid
		ap.Associations++
	}
	resp := AssocRespBody{Capability: ap.capability(), Status: status, AID: aid}
	ap.transmit(Frame{
		Type: TypeManagement, Subtype: SubtypeAssocResp,
		Addr1: sta, Addr2: ap.cfg.BSSID, Addr3: ap.cfg.BSSID,
		Body: resp.Marshal(),
	})
	if status == StatusSuccess && ap.OnAssociate != nil {
		ap.OnAssociate(sta)
	}
}

// Deauth expels a station (management action, also usable for housekeeping).
func (ap *AP) Deauth(sta ethernet.MAC, reason uint16) {
	if st, ok := ap.stations[sta]; ok {
		st.associated = false
		st.authenticated = false
	}
	body := ReasonBody{Reason: reason}
	ap.transmit(Frame{
		Type: TypeManagement, Subtype: SubtypeDeauth,
		Addr1: sta, Addr2: ap.cfg.BSSID, Addr3: ap.cfg.BSSID,
		Body: body.Marshal(),
	})
}

// onData handles station → DS traffic.
func (ap *AP) onData(f Frame) {
	if !f.ToDS || f.FromDS {
		return
	}
	st, ok := ap.stations[f.Addr2]
	if !ok || !st.associated {
		// Class-3 frame from a non-associated station.
		ap.Class3Errors++
		ap.Deauth(f.Addr2, ReasonClass3NotAssoc)
		return
	}
	body := f.Body
	var pb *pkt.Buf // decrypt buffer; ownership passes to bridge
	if ap.cfg.WEPKey != nil {
		if !f.Protected {
			ap.UnprotectedDrops++
			return
		}
		pb = ap.kernel.BufPool().GetCopy(body)
		if err := wep.OpenInPlace(ap.cfg.WEPKey, pb); err != nil {
			ap.ICVFailures++
			pb.Release()
			return
		}
		body = pb.Bytes()
	} else if f.Protected {
		return // we have no key to decrypt with
	}
	t, payload, err := DecapsulateLLC(body)
	if err != nil {
		if pb != nil {
			pb.Release()
		}
		return
	}
	if pb != nil {
		pb.Pop(LLCLen) // the buffer's view becomes the inner payload
	}
	src, dst := f.Addr2, f.Addr3
	if ap.PortGate != nil && !ap.PortGate(src, t) {
		ap.GateDrops++
		if pb != nil {
			pb.Release()
		}
		return
	}
	ap.bridge(src, dst, t, payload, fromAir, pb)
}

// onUplinkFrame handles wire → BSS traffic. The frame's payload is a
// transient view (the port releases its buffer after this returns), so the
// bridge gets no owned buffer: air forwarding copies.
func (ap *AP) onUplinkFrame(f ethernet.Frame) {
	if ap.stopped || ap.down {
		return
	}
	ap.bridge(f.Src, f.Dst, f.Type, f.Payload, fromWire, nil)
}

// hostSendBuf handles host-stack → BSS/wire traffic: the bridge takes
// ownership of pb and, when the frame only goes to the air, encapsulates it
// in place.
//
//simvet:owner transfer forwards pb to bridge, which settles it on every path
func (ap *AP) hostSendBuf(dst ethernet.MAC, t ethernet.EtherType, pb *pkt.Buf) {
	ap.bridge(ap.cfg.BSSID, dst, t, pb.Bytes(), fromHost, pb)
}

type bridgeOrigin int

const (
	fromAir bridgeOrigin = iota
	fromWire
	fromHost
)

// bridge implements the AP's three-way L2 forwarding. payload is the frame
// body; owned, when non-nil, is the buffer payload views, and the bridge
// takes ownership of it (releasing it unless it is handed whole to the air
// path). The toHost → toAir → toWire order is load-bearing: delivery event
// sequence numbers — and therefore the trace digest — depend on it.
//
//simvet:owner transfer owns the optional buffer: releases it or hands it whole to the air path
func (ap *AP) bridge(src, dst ethernet.MAC, t ethernet.EtherType, payload []byte, origin bridgeOrigin, owned *pkt.Buf) {
	toHost := dst == ap.cfg.BSSID || dst.IsMulticast()
	toAir := dst.IsMulticast() || ap.IsAssociated(dst)
	toWire := ap.uplink != nil && (dst.IsMulticast() || (!toAir && dst != ap.cfg.BSSID))
	airSend := toAir && origin != fromAir || (toAir && dst.IsMulticast() && origin == fromAir)
	wireSend := toWire && origin != fromWire

	if toHost && origin != fromHost && ap.host.recv != nil {
		ap.host.recv(ethernet.Frame{Dst: dst, Src: src, Type: t, Payload: payload})
	}
	if airSend {
		if owned != nil && !wireSend {
			// Sole remaining consumer: encapsulate in place. When the wire
			// path still needs the cleartext bytes we must not seal over
			// them, so that case falls through to the copying path.
			ap.sendToAirBuf(src, dst, t, owned)
			owned = nil
		} else {
			ap.sendToAir(src, dst, t, payload)
		}
	}
	if wireSend {
		ap.uplink.Transmit(ethernet.Frame{Dst: dst, Src: src, Type: t, Payload: payload})
	}
	if owned != nil {
		owned.Release()
	}
}

// sendToAir transmits a FromDS data frame into the BSS, copying the payload
// into a pooled buffer.
func (ap *AP) sendToAir(src, dst ethernet.MAC, t ethernet.EtherType, payload []byte) {
	ap.sendToAirBuf(src, dst, t, ap.kernel.BufPool().GetCopy(payload))
}

// sendToAirBuf transmits a FromDS data frame, encapsulating in place (LLC,
// optional WEP, MAC header pushed into pb's headroom). Takes ownership of pb.
//
//simvet:owner transfer encapsulates in place and forwards pb to the transmit queue
func (ap *AP) sendToAirBuf(src, dst ethernet.MAC, t ethernet.EtherType, pb *pkt.Buf) {
	putLLC(pb.Push(LLCLen), t)
	protected := false
	if ap.cfg.WEPKey != nil {
		wep.SealInPlace(ap.cfg.WEPKey, ap.ivs.NextIV(), 0, pb)
		protected = true
	}
	ap.transmitBuf(Frame{
		Type: TypeData, Subtype: SubtypeDataFrame, FromDS: true, Protected: protected,
		Addr1: dst, Addr2: ap.cfg.BSSID, Addr3: src,
	}, pb)
}

// apHostNIC is the AP host's virtual interface.
type apHostNIC struct {
	ap   *AP
	recv ethernet.Receiver
}

func (n *apHostNIC) HWAddr() ethernet.MAC            { return n.ap.cfg.BSSID }
func (n *apHostNIC) MTU() int                        { return ethernet.DefaultMTU }
func (n *apHostNIC) SetReceiver(r ethernet.Receiver) { n.recv = r }
func (n *apHostNIC) SendBuf(dst ethernet.MAC, t ethernet.EtherType, pb *pkt.Buf) {
	n.ap.hostSendBuf(dst, t, pb)
}

var _ ethernet.NIC = (*apHostNIC)(nil)
