package phy

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// benchmarkMediumBroadcast measures per-transmission delivery cost at a
// given world size: radios on a 90 m grid cycling through the 1/6/11 plan,
// with senders rotating through the population so no single neighborhood
// stays hot. Sharded delivery evaluates one interference neighborhood per
// frame, so ns/op should stay roughly flat as the world grows; the
// Unsharded variant (flatScan: the pre-shard O(radios) scan) scales
// linearly and is the comparison floor for the events/sec claim.
func benchmarkMediumBroadcast(b *testing.B, n int, flat bool) {
	k := sim.NewKernel(1)
	newMedium := NewMedium
	if flat {
		newMedium = newFlatMedium
	}
	m := newMedium(k, Config{})
	side := int(math.Ceil(math.Sqrt(float64(n))))
	plan := [3]Channel{1, 6, 11}
	for i := 0; i < n; i++ {
		r := m.AddRadio(RadioConfig{
			Name:    fmt.Sprintf("r%d", i),
			Pos:     Position{X: float64(i%side) * 90, Y: float64(i/side) * 90},
			Channel: plan[i%3],
		})
		r.SetReceiver(func(data []byte, info RxInfo) {})
	}
	radios := m.Radios()
	payload := make([]byte, 512)
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radios[i%n].SendBuf(pkt.Wrap(payload), Rate11Mbps)
		// 512 bytes at 11 Mb/s is well under a millisecond: each iteration
		// is one complete transmission plus its delivery fan-out.
		events += k.RunFor(sim.Millisecond)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// denseRadios and denseSenders shape the dense case: a crowd inside one
// decode range on every channel, with several frames on the air at once.
const (
	denseRadios  = 256
	denseSenders = 8
)

// benchmarkMediumBroadcastDense measures the campus-join shape the sparse
// cases never reach: denseRadios radios on a 16×16 grid at 8 m spacing
// (all within one default-power decode range) cycling through channels
// 1–11, and denseSenders of them transmitting in the same instant each
// iteration. Every completion then fans out to a large mixed-channel
// candidate set and runs the capture test against the other overlapping
// frames. One op is one burst of denseSenders transmissions.
func benchmarkMediumBroadcastDense(b *testing.B) {
	k := sim.NewKernel(1)
	m := NewMedium(k, Config{})
	for i := 0; i < denseRadios; i++ {
		r := m.AddRadio(RadioConfig{
			Name:    fmt.Sprintf("r%d", i),
			Pos:     Position{X: float64(i%16) * 8, Y: float64(i/16) * 8},
			Channel: MinChannel + Channel(i%int(MaxChannel)),
		})
		r.SetReceiver(func(data []byte, info RxInfo) {})
	}
	radios := m.Radios()
	payload := make([]byte, 512)
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < denseSenders; j++ {
			radios[(i*denseSenders+j)*37%denseRadios].SendBuf(pkt.Wrap(payload), Rate11Mbps)
		}
		events += k.RunFor(sim.Millisecond)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkMediumBroadcast stands for phy's share of the campus workloads:
// 71% of campus-join CPU (516 ms a unit) and 56% of campus-steady's (91 ms a
// window) in one traced seed-1 run of bench/run.sh (--seconds 12) on 2
// vCPUs, nearly all of it Medium.complete's per-candidate delivery loop. The radios=N cases price the gather as the
// world grows; the dense case prices the fan-out, capture test and loss
// decisions that a campus join spends that share on.
func BenchmarkMediumBroadcast(b *testing.B) {
	for _, n := range []int{64, 1024, 4096} {
		n := n
		b.Run(fmt.Sprintf("radios=%d", n), func(b *testing.B) {
			benchmarkMediumBroadcast(b, n, false)
		})
	}
	b.Run("dense", benchmarkMediumBroadcastDense)
}

func BenchmarkMediumBroadcastUnsharded(b *testing.B) {
	b.Run("radios=1024", func(b *testing.B) {
		benchmarkMediumBroadcast(b, 1024, true)
	})
}
