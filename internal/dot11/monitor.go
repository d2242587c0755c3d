package dot11

import (
	"repro/internal/ethernet"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Monitor is a radio in monitor (rfmon) mode: it parses and reports every
// frame decodable on its channel, with no address filtering and no
// transmission. This is the sniffer the paper's attacker uses to harvest
// MAC addresses and WEP traffic, and the sensor the defender's rogue
// detector runs on.
type Monitor struct {
	radio *phy.Radio
	// OnFrame receives every decoded frame along with PHY metadata.
	OnFrame func(f Frame, info phy.RxInfo)

	// Frames counts everything decoded; ParseErrors counts undecodable
	// received buffers.
	Frames      uint64
	ParseErrors uint64
}

// NewMonitor puts a radio in monitor mode on its current channel.
func NewMonitor(radio *phy.Radio) *Monitor {
	m := &Monitor{radio: radio}
	radio.SetReceiver(func(raw []byte, info phy.RxInfo) {
		f, err := Unmarshal(raw)
		if err != nil {
			m.ParseErrors++
			return
		}
		m.Frames++
		if m.OnFrame != nil {
			m.OnFrame(f, info)
		}
	})
	return m
}

// SetChannel retunes the monitor (channel hopping).
func (m *Monitor) SetChannel(c phy.Channel) { m.radio.SetChannel(c) }

// Channel reports the monitored channel.
func (m *Monitor) Channel() phy.Channel { return m.radio.Channel() }

// Injector is a raw-frame transmitter: monitor mode's evil twin, used by the
// attack package to spoof management frames (e.g. forged deauths) with
// arbitrary source addresses.
type Injector struct {
	*entity
}

// NewInjector wraps a radio for raw frame injection. Injectors have no MAC
// identity: they never wait for link-layer ACKs (fire-and-forget spoofing).
func NewInjector(k *sim.Kernel, radio *phy.Radio) *Injector {
	return &Injector{entity: newEntity(k, radio, ethernet.MAC{})}
}

// Inject transmits a frame, assigning the injector's own sequence number.
func (i *Injector) Inject(f Frame) { i.transmit(f) }

// InjectRaw transmits a frame without touching its sequence number, for
// spoofing specific sequence-control values.
func (i *Injector) InjectRaw(f Frame) { i.enqueue(f) }

// SetChannel retunes the injector.
func (i *Injector) SetChannel(c phy.Channel) { i.radio.SetChannel(c) }
