package sim

import (
	"fmt"
	"testing"
)

// Kernel throughput benchmarks: self-scheduling event storms at several
// standing queue depths, reported as events/sec. BenchmarkRefHeapEventsPerSec
// runs the identical storm against the reference container/heap scheduler
// (differential_test.go), so the wheel's speedup at depth is a single
// benchstat comparison — the acceptance bar for the time-wheel swap is >=3x
// at 64k+ queued events.

// stormDelay is the storm's reschedule rule: a pure function of the event
// ordinal, so the wheel and reference benchmarks replay byte-identical
// workloads. Mostly in-window delays across the slot range, with ~1/64 of
// events thrown past the wheel horizon to keep the overflow tier hot.
func stormDelay(n uint64) Time {
	h := splitmix64(n)
	if h%64 == 0 {
		return 200*Millisecond + Time(h>>8%uint64(400*Millisecond))
	}
	return Time(h >> 8 % uint64(8*Millisecond))
}

func BenchmarkKernelEventsPerSec(b *testing.B) {
	for _, depth := range []int{1 << 10, 1 << 14, 1 << 16, 1 << 18} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			k := NewKernel(1)
			var n uint64
			var storm func()
			storm = func() {
				n++
				k.After(stormDelay(n), storm)
			}
			for i := 0; i < depth; i++ {
				storm()
			}
			// One full turnover warms slots, heaps, and the freelist.
			for i := 0; i < depth; i++ {
				k.step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.step()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

func BenchmarkRefHeapEventsPerSec(b *testing.B) {
	for _, depth := range []int{1 << 10, 1 << 14, 1 << 16, 1 << 18} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			r := &refSched{}
			var n uint64
			var storm func()
			storm = func() {
				n++
				r.at(r.now+stormDelay(n), storm)
			}
			for i := 0; i < depth; i++ {
				storm()
			}
			for i := 0; i < depth; i++ {
				r.step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.step()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkKernelSoak measures sustained simulated-time throughput: each
// iteration advances the clock one simulated second under a 4096-event
// standing storm, reported as simulated seconds per wall second. The bench
// doubles as the long-run flat-memory check: after warmup, the event pool
// must not grow no matter how long the soak runs.
func BenchmarkKernelSoak(b *testing.B) {
	k := NewKernel(7)
	var n uint64
	var storm func()
	storm = func() {
		n++
		k.After(stormDelay(n), storm)
	}
	for i := 0; i < 4096; i++ {
		storm()
	}
	k.RunFor(Second) // warm slots, heaps, freelist
	allocsAfterWarmup := k.EventAllocs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunFor(Second)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "simsec/wallsec")
	if k.EventAllocs() != allocsAfterWarmup {
		b.Fatalf("soak grew the event pool: %d -> %d allocs",
			allocsAfterWarmup, k.EventAllocs())
	}
}
