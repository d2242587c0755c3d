package phy

import (
	"math"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// Jammer floods a channel with meaningless transmissions, denying it to
// everyone in range — the paper's Section 1 lists jamming among the threats
// wireless inherits from its broadcast physical layer. (A jammer can also
// serve the rogue: silence the real AP's channel and the clients roam.)
type Jammer struct {
	kernel  *sim.Kernel
	radio   *Radio
	payload []byte
	rate    Rate
	stopped bool

	// Bursts counts jamming transmissions.
	Bursts uint64
	// peakEnergy is the strongest co-channel energy sensed at any burst
	// boundary (see ObservedEnergyDBm).
	peakEnergy float64
}

// NewJammer starts continuous jamming on the radio's channel with bursts of
// burstBytes at the given rate (defaults: 1500 bytes at 1 Mb/s — long, slow
// bursts occupy the most airtime per transmission).
func NewJammer(k *sim.Kernel, radio *Radio, burstBytes int, rate Rate) *Jammer {
	if burstBytes <= 0 {
		burstBytes = 1500
	}
	if rate == 0 {
		rate = Rate1Mbps
	}
	j := &Jammer{
		kernel: k, radio: radio, payload: make([]byte, burstBytes), rate: rate,
		peakEnergy: math.Inf(-1),
	}
	j.burst()
	return j
}

// Stop ends the jamming after the current burst.
func (j *Jammer) Stop() { j.stopped = true }

// ObservedEnergyDBm reports the strongest energy the jammer's radio sensed
// on its channel at any burst boundary — the noise floor if the air was
// always otherwise quiet. The jammer has no receiver (it decodes nothing),
// so this reads the medium's per-channel shard index directly via
// Radio.EnergyDBm: energy from channels past the rejection range never
// registers, because those shards are outside the radio's neighborhood.
func (j *Jammer) ObservedEnergyDBm() float64 { return j.peakEnergy }

func (j *Jammer) burst() {
	if j.stopped {
		return
	}
	// Sample the air before keying up: our own burst is excluded from
	// EnergyDBm while transmitting, but competing transmissions mid-flight
	// at this instant are what the jammer can sense between bursts.
	if e := j.radio.EnergyDBm(); e > j.peakEnergy {
		j.peakEnergy = e
	}
	j.Bursts++
	end := j.radio.SendBuf(pkt.Wrap(j.payload), j.rate)
	// Back-to-back bursts: the channel never goes idle.
	j.kernel.At(end, j.burst)
}
