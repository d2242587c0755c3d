package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel(1)
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", k.Pending())
	}
}

func TestEventsFireInTimestampOrder(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.At(30*Millisecond, func() { order = append(order, 3) })
	k.At(10*Millisecond, func() { order = append(order, 1) })
	k.At(20*Millisecond, func() { order = append(order, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if k.Now() != 30*Millisecond {
		t.Fatalf("Now() = %v, want 30ms", k.Now())
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(Second, func() { order = append(order, i) })
	}
	k.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.At(Second, func() {
		k.After(500*Millisecond, func() { at = k.Now() })
	})
	k.Run()
	if at != Second+500*Millisecond {
		t.Fatalf("fired at %v, want 1.5s", at)
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		k.At(0, func() {})
	})
	k.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	k := NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	k.After(-Second, func() {})
}

func TestNilEventFuncPanics(t *testing.T) {
	k := NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Error("nil fn did not panic")
		}
	}()
	k.At(Second, nil)
}

func TestCancelPreventsFiring(t *testing.T) {
	k := NewKernel(1)
	fired := false
	e := k.At(Second, func() { fired = true })
	e.Cancel()
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	k := NewKernel(1)
	e := k.At(Second, func() {})
	e.Cancel()
	e.Cancel() // must not panic
	var zero Timer
	zero.Cancel() // the zero Timer cancels nothing
	k.Run()
}

func TestRunUntilLeavesLaterEventsQueued(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	for _, d := range []Time{Second, 2 * Second, 3 * Second} {
		d := d
		k.At(d, func() { fired = append(fired, d) })
	}
	n := k.RunUntil(2 * Second)
	if n != 2 {
		t.Fatalf("RunUntil fired %d events, want 2", n)
	}
	if k.Now() != 2*Second {
		t.Fatalf("Now() = %v, want 2s", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", k.Pending())
	}
	k.Run()
	if len(fired) != 3 {
		t.Fatalf("total fired %d, want 3", len(fired))
	}
}

func TestRunUntilAdvancesClockWithNoEvents(t *testing.T) {
	k := NewKernel(1)
	k.RunUntil(5 * Second)
	if k.Now() != 5*Second {
		t.Fatalf("Now() = %v, want 5s", k.Now())
	}
}

func TestRunForIsRelative(t *testing.T) {
	k := NewKernel(1)
	k.RunUntil(Second)
	k.RunFor(2 * Second)
	if k.Now() != 3*Second {
		t.Fatalf("Now() = %v, want 3s", k.Now())
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := NewKernel(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count == 5 {
			k.Stop()
			return
		}
		k.After(Millisecond, tick)
	}
	k.After(Millisecond, tick)
	k.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if !k.Stopped() {
		t.Fatal("Stopped() = false")
	}
}

func TestFiredCounter(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 7; i++ {
		k.At(Time(i)*Millisecond, func() {})
	}
	if n := k.Run(); n != 7 {
		t.Fatalf("Run() = %d, want 7", n)
	}
	if k.Fired() != 7 {
		t.Fatalf("Fired() = %d, want 7", k.Fired())
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := 3 * Second
	if a.Add(Second) != 4*Second {
		t.Error("Add")
	}
	if a.Sub(Second) != 2*Second {
		t.Error("Sub")
	}
	if a.Seconds() != 3.0 {
		t.Error("Seconds")
	}
	if a.String() != "3s" {
		t.Errorf("String = %q", a.String())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		k := NewKernel(42)
		var vals []uint64
		for i := 0; i < 100; i++ {
			k.After(Time(k.RNG().Intn(1000))*Microsecond, func() {
				vals = append(vals, k.RNG().Uint64())
			})
		}
		k.Run()
		return vals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1).Uint64()
	b := NewRNG(2).Uint64()
	if a == b {
		t.Fatal("different seeds produced identical first output")
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) only produced %d distinct values", len(seen))
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGBoolEdges(t *testing.T) {
	r := NewRNG(1)
	if r.Bool(0) {
		t.Error("Bool(0) = true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) = false")
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(1)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) frequency = %v", got)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(3)
	n := 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		j := r.Jitter(Millisecond)
		if j < 0 || j >= Millisecond {
			t.Fatalf("Jitter out of range: %v", j)
		}
	}
	if r.Jitter(0) != 0 {
		t.Error("Jitter(0) != 0")
	}
}

func TestRNGBytesFills(t *testing.T) {
	r := NewRNG(5)
	for _, n := range []int{0, 1, 7, 8, 9, 64, 100} {
		b := make([]byte, n)
		r.Bytes(b)
		if n >= 16 {
			allZero := true
			for _, v := range b {
				if v != 0 {
					allZero = false
					break
				}
			}
			if allZero {
				t.Fatalf("Bytes(%d) left buffer zero", n)
			}
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(9)
	f := r.Fork()
	if r.Uint64() == f.Uint64() {
		t.Fatal("fork tracks parent")
	}
}

// Property: for any batch of (delay, id) pairs, events fire sorted by delay
// with FIFO tie-breaking.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel(1)
		type rec struct {
			when Time
			seq  int
		}
		var fired []rec
		for i, d := range delays {
			d := Time(d) * Microsecond
			i := i
			k.At(d, func() { fired = append(fired, rec{d, i}) })
		}
		k.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].when < fired[i-1].when {
				return false
			}
			if fired[i].when == fired[i-1].when && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RNG stream is a pure function of the seed.
func TestQuickRNGDeterministic(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKernelScheduleFire(b *testing.B) {
	k := NewKernel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.After(Microsecond, func() {})
		k.step()
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func TestDeliveryBarrierParksBufferReleases(t *testing.T) {
	// The kernel's delivery barrier is the pool's batch mode: releases
	// between BeginDelivery and EndDelivery are recycled together at the
	// end, so a fan-out that releases a buffer mid-way cannot have its
	// bytes recycled into a later receiver's Get in the same fan-out.
	k := NewKernel(1)
	k.BeginDelivery()
	a := k.BufPool().Get()
	a.Release()
	if b := k.BufPool().Get(); b == a {
		t.Fatal("buffer released inside a delivery barrier was recycled before EndDelivery")
	}
	k.EndDelivery()
	if c := k.BufPool().Get(); c != a {
		t.Fatal("barrier-parked buffer not reissued after EndDelivery")
	}
}
