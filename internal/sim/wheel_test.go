package sim

import (
	"testing"
)

// Tests for the time-wheel scheduler's tiers and the pooled-event edge cases
// the wheel must preserve: same-tick immediate fires, overflow promotion
// order, cancel interactions with the freelist, O(n) drain on Stop, and
// steady-state slot storage.

// TestStopDrainsQueuedEvents pins the O(n) drain: a kernel with thousands of
// queued events — live and cancelled — must empty its queue on Stop and
// recycle every event into the freelist for reuse.
func TestStopDrainsQueuedEvents(t *testing.T) {
	k := NewKernel(1)
	const n = 5000
	for i := 0; i < n; i++ {
		// Spread across all tiers: imminent, wheel slots, and overflow.
		d := Time(i) * 37 * Microsecond
		k.At(d, func() { t.Error("drained event fired") })
		e := k.At(d+Microsecond, func() { t.Error("drained event fired") })
		if i%3 == 0 {
			e.Cancel()
		}
	}
	allocsBefore := k.EventAllocs()
	k.Stop()
	if p := k.Pending(); p != 0 {
		t.Fatalf("Pending() = %d after Stop, want 0", p)
	}
	if got := len(k.freeEvents); got != 2*n {
		t.Fatalf("freelist holds %d events after drain, want all %d recycled", got, 2*n)
	}
	if k.EventAllocs() != allocsBefore {
		t.Fatalf("drain allocated events: %d -> %d", allocsBefore, k.EventAllocs())
	}
	if k.Run() != 0 {
		t.Fatal("stopped kernel fired events")
	}
}

// TestStopDuringRunDrains covers the common shape: Stop called from inside a
// fired event while thousands of later events are still queued.
func TestStopDuringRunDrains(t *testing.T) {
	k := NewKernel(1)
	for i := 1; i <= 3000; i++ {
		k.At(Time(i)*Millisecond, func() {})
	}
	fired := 0
	k.At(500*Microsecond, func() { fired++; k.Stop() })
	k.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if p := k.Pending(); p != 0 {
		t.Fatalf("Pending() = %d after mid-run Stop, want 0", p)
	}
	// The 3000 queued events plus the one that fired all recycle.
	if got := len(k.freeEvents); got != 3001 {
		t.Fatalf("freelist holds %d events, want 3001", got)
	}
}

// TestCancelThenReuse pins the cancel/freelist interaction: a cancelled event
// must not fire, must recycle like the events around it, and every recycled
// struct must be reusable immediately.
func TestCancelThenReuse(t *testing.T) {
	k := NewKernel(1)
	k.SetInvariantChecks(true)
	fired := []string{}
	e := k.At(2*Millisecond, func() { fired = append(fired, "cancelled") })
	k.At(Millisecond, func() { fired = append(fired, "a") })
	e.Cancel()
	k.At(3*Millisecond, func() { fired = append(fired, "b") })
	k.Run()
	// The structs of a, b and the cancelled event are back on the freelist.
	k.At(k.Now(), func() { fired = append(fired, "c") })
	k.Run()
	if want := "a,b,c"; join(fired) != want {
		t.Fatalf("fired %q, want %q", join(fired), want)
	}
	if k.EventAllocs() != 3 {
		t.Fatalf("event allocs = %d, want 3 (cancel must not block reuse)", k.EventAllocs())
	}
}

func join(s []string) string {
	out := ""
	for i, v := range s {
		if i > 0 {
			out += ","
		}
		out += v
	}
	return out
}

// TestScheduleAtNowSameSlot pins the same-tick immediate fire: an event
// scheduled at exactly Now() from inside a firing event joins the imminent
// heap and fires after the current event, before anything later — even when
// the later event sits in the same wheel slot.
func TestScheduleAtNowSameSlot(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.At(Millisecond, func() {
		order = append(order, 1)
		k.At(k.Now(), func() { order = append(order, 2) })
	})
	// Same slot as the 1ms event (sub-resolution delta), later tie-break.
	k.At(Millisecond+Nanosecond, func() { order = append(order, 3) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
}

// TestOverflowPromotionOrder pins the far-future path: events beyond the
// wheel horizon — including same-timestamp ties and events exactly at the
// window boundary — must fire in (when, seq) order after promotion.
func TestOverflowPromotionOrder(t *testing.T) {
	k := NewKernel(1)
	horizon := Time(wheelSlots << slotShift)
	var order []int
	record := func(id int) func() { return func() { order = append(order, id) } }
	k.At(3*horizon, record(4))
	k.At(2*horizon, record(2))
	k.At(2*horizon, record(3)) // tie with the previous: seq order
	k.At(horizon+Time(1)<<slotShift, record(1))
	k.At(3*horizon+Millisecond, record(5))
	if len(k.overflow) == 0 {
		t.Fatal("far-future events did not land in the overflow heap")
	}
	k.Run()
	for i, id := range order {
		if id != i+1 {
			t.Fatalf("promotion order = %v, want [1 2 3 4 5]", order)
		}
	}
}

// TestWheelSlotSteadyState is the pool_test-style allocation pin for the
// wheel itself: once slot backing arrays, the imminent heap, and the event
// freelist have warmed through a full wheel revolution, a self-scheduling
// event storm must run allocation-free — no per-event slice growth anywhere.
func TestWheelSlotSteadyState(t *testing.T) {
	k := NewKernel(7)
	var chain func()
	chain = func() {
		// Jittered delays touch a spread of slots and, over a round, every
		// slot index as the cursor wraps the wheel.
		k.After(200*Microsecond+k.RNG().Jitter(4*Millisecond), chain)
	}
	const chains = 32
	for i := 0; i < chains; i++ {
		chain()
	}
	// Warm every slot to the storm's worst case: each chain keeps exactly one
	// event in flight, so no slot can ever hold more than `chains` events.
	// Walking the cursor one tick at a time through a full revolution with a
	// burst of `chains` no-ops per tick caps every slot's backing array once —
	// steady state means storage bounded by wheel geometry × in-flight events,
	// never growing with events fired.
	steps := 0
	var warmup func()
	warmup = func() {
		if steps++; steps > wheelSlots+8 {
			return
		}
		for i := 0; i < chains; i++ {
			k.At(k.Now()+Time(1)<<slotShift, func() {})
		}
		k.After(Time(1)<<slotShift, warmup)
	}
	warmup()
	round := func() { k.RunFor(200 * Millisecond) } // > one wheel revolution
	round()                                         // warm heap/freelist capacities through one storm round
	allocsAfterWarmup := k.EventAllocs()
	if avg := testing.AllocsPerRun(5, round); avg > 0 {
		t.Fatalf("steady-state storm allocates %.1f times per round, want 0", avg)
	}
	if k.EventAllocs() != allocsAfterWarmup {
		t.Fatalf("event freelist grew after warmup: %d -> %d",
			allocsAfterWarmup, k.EventAllocs())
	}
}

// TestDrainedAtHandleCancelSafe: cancelling a handle after its event was
// dropped by a Stop drain must stay a safe no-op.
func TestDrainedAtHandleCancelSafe(t *testing.T) {
	k := NewKernel(1)
	e := k.At(Second, func() {})
	k.Stop()
	e.Cancel()
	if k.Pending() != 0 {
		t.Fatal("queue not empty")
	}
}

// TestSlotTableLazy pins the lazy slot-table allocation: a kernel whose
// events never land in the near-future wheel window — immediate fires and
// far-future overflow only — must never pay the ~100 KB table, while the
// first in-window insert allocates it exactly once.
func TestSlotTableLazy(t *testing.T) {
	k := NewKernel(1)
	if k.slots != nil {
		t.Fatal("NewKernel allocated the slot table eagerly")
	}
	k.At(0, func() {})                             // imminent tier
	k.At(Time(2)<<slotShift*wheelSlots, func() {}) // overflow tier
	if k.slots != nil {
		t.Fatal("imminent/overflow inserts allocated the slot table")
	}
	k.At(Time(1)<<slotShift, func() {}) // first in-window event
	if k.slots == nil {
		t.Fatal("in-window insert did not allocate the slot table")
	}
	if k.Run() != 3 {
		t.Fatalf("fired = %d, want all 3 queued events", k.fired)
	}
}

// TestSparseWheelReusesSlotArrays pins the spare stack: a fresh kernel whose
// few in-flight events each land in a slot of their own, together visiting
// every slot on each of three rotations of the wheel, must allocate slot
// arrays for its peak of occupied slots only. Kept per slot index, the
// arrays would be allocated at the first insert into every slot visited.
func TestSparseWheelReusesSlotArrays(t *testing.T) {
	const chains, fires = 4, 3 * wheelSlots
	tick := Time(1) << slotShift
	var k *Kernel
	fired := 0
	var hop func()
	hop = func() {
		if fired++; fired < fires {
			k.After(chains*tick, hop)
		}
	}
	world := func(n int) func() {
		return func() {
			k = NewKernel(1)
			fired = 0
			for i := 1; i <= n; i++ {
				k.At(Time(i)*tick, hop)
			}
			k.Run()
		}
	}
	base := testing.AllocsPerRun(1, world(1)) // kernel, slot table, one chain
	got := testing.AllocsPerRun(1, world(chains))
	if fired < fires {
		t.Fatalf("fired %d events, want at least %d", fired, fires)
	}
	t.Logf("one chain: %.0f allocations; %d chains: %.0f", base, chains, got)
	// Per chain: its event, its slot array and a share of the freelist and
	// heap growth; nothing per slot visited.
	if extra := got - base; extra > 4*chains {
		t.Fatalf("sparse wheel made %.0f allocations beyond one chain's %.0f, want at most %d",
			extra, base, 4*chains)
	}
	// The scheduler invariant holds every spare array empty.
	if err := k.checkScheduler(); err != nil {
		t.Fatal(err)
	}
	k.spare = append(k.spare, []*event{{}})
	if err := k.checkScheduler(); err == nil {
		t.Fatal("checkScheduler accepted a spare array holding an event")
	}
}
