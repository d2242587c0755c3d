package sim

import (
	"testing"
	"unsafe"
)

// TestEventSize pins event at 24 bytes (when, seq, fn), exactly a malloc
// size class. The freelist is sized by a run's peak of queued events, and
// campus worlds queue tens of thousands at once, so a field that grows the
// struct past 24 bytes moves every one of them into the 32-byte class: a
// third more bytes for the same events. Cancellation needs no field of its
// own: a queued event with a nil fn is a cancelled one.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 24 {
		t.Fatalf("sim.event is %d bytes, want 24", got)
	}
}

// TestScheduleReusesEvents proves the kernel freelist recycles event
// structs: after the first fire, every subsequent At is served from the
// freelist with zero fresh allocations.
func TestScheduleReusesEvents(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	for i := 0; i < 100; i++ {
		k.At(Time(i)*Millisecond, func() { fired++ })
		k.Run()
	}
	if fired != 100 {
		t.Fatalf("fired = %d, want 100", fired)
	}
	if k.EventAllocs() != 1 {
		t.Fatalf("event allocs = %d, want 1 (freelist must recycle)", k.EventAllocs())
	}
	if k.EventReuses() != 99 {
		t.Fatalf("event reuses = %d, want 99", k.EventReuses())
	}
}

// TestScheduleReusesSameStruct pins the LIFO identity property: the struct
// recycled from the last fire is the one the next At hands out.
func TestScheduleReusesSameStruct(t *testing.T) {
	k := NewKernel(1)
	k.At(0, func() {})
	k.Run()
	if n := len(k.freeEvents); n != 1 {
		t.Fatalf("freelist len = %d, want 1", n)
	}
	recycled := k.freeEvents[0]
	k.At(0, func() {})
	if k.cur[0] != recycled {
		t.Fatal("At did not reuse the recycled event struct")
	}
	k.Run()
}

// TestStaleTimerCannotCancelReissuedEvent pins the safety property that
// makes pooling At/After sound: a Timer kept past its event's fire must not
// cancel whatever the freelist later hands the same struct to, whether the
// struct sits zeroed on the freelist or has been reissued.
func TestStaleTimerCannotCancelReissuedEvent(t *testing.T) {
	k := NewKernel(1)
	stale := k.At(Millisecond, func() {}) // seq 0, like a zeroed struct
	k.Run()
	stale.Cancel() // struct is zeroed on the freelist
	fired := 0
	live := k.At(k.Now(), func() { fired++ })
	if live.e != stale.e {
		t.Fatal("freelist did not reissue the fired event's struct")
	}
	stale.Cancel() // struct now carries the live timer's seq
	k.Run()
	if fired != 1 {
		t.Fatalf("reissued event fired %d times, want 1", fired)
	}
	if k.EventAllocs() != 1 {
		t.Fatalf("event allocs = %d, want 1", k.EventAllocs())
	}
}

// TestCancelledEventsReturnToFreelist pins the three lazy-drop sites: a
// cancelled event recycles whether the queue drops it while popping
// (nextEvent, under Run), while peeking (peekWhen, under RunFor) or while
// loading its wheel slot, so cancel-heavy timers never grow the pool.
func TestCancelledEventsReturnToFreelist(t *testing.T) {
	k := NewKernel(1)
	for i := 0; i < 100; i++ {
		// Times are cursor-relative so each event lands in its own tier;
		// every round leaves the clock at or before the cursor tick.
		far := Time(k.cursor+2*wheelSlots) << slotShift
		k.At(k.Now(), func() {}).Cancel()                     // imminent heap
		k.At(Time(k.cursor+8)<<slotShift, func() {}).Cancel() // wheel slot
		k.At(far, func() {}).Cancel()                         // overflow heap
		if len(k.cur) != 1 || k.wheelCount != 1 || len(k.overflow) != 1 {
			t.Fatalf("round %d: tiers hold %d/%d/%d events, want 1/1/1",
				i, len(k.cur), k.wheelCount, len(k.overflow))
		}
		if i%2 == 0 {
			k.RunFor(far - k.Now())
		} else {
			k.Run()
		}
		if p := k.Pending(); p != 0 {
			t.Fatalf("round %d: Pending() = %d, want 0", i, p)
		}
	}
	if k.EventAllocs() != 3 {
		t.Fatalf("event allocs = %d, want 3 (dropped events must recycle)", k.EventAllocs())
	}
	if k.Fired() != 0 {
		t.Fatalf("fired = %d cancelled events, want 0", k.Fired())
	}
}

// TestPooledEventsInterleaveWithTimers checks that At and After share one
// (when, seq) order.
func TestPooledEventsInterleaveWithTimers(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.At(2*Millisecond, func() { order = append(order, 2) })
	k.At(Millisecond, func() { order = append(order, 1) })
	k.After(2*Millisecond, func() { order = append(order, 3) }) // same when, later seq
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
}

// TestBufPoolPoisonFollowsChecks ties the pool's debug mode to the kernel's
// invariant-check switch (core.Config.Checks drives both).
func TestBufPoolPoisonFollowsChecks(t *testing.T) {
	k := NewKernel(1)
	k.SetInvariantChecks(true)
	b := k.BufPool().Get()
	b.Append([]byte("x"))
	b.Release()
	if s := k.BufPool().Stats(); s.Poisoned != 1 {
		t.Fatalf("poisoned = %d, want 1 with checks on", s.Poisoned)
	}
}
