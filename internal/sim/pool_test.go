package sim

import (
	"testing"
	"unsafe"
)

// TestEventSize pins Event at 32 bytes, exactly a malloc size class. At and
// After allocate one Event per call, tens of MB per cmd/experiments pass, so
// a field that grows the struct past 32 bytes moves every such event into
// the 48-byte class: 50% more bytes for the same events.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 32 {
		t.Fatalf("sim.Event is %d bytes, want 32", got)
	}
}

// TestScheduleReusesEvents proves the kernel freelist recycles pooled Event
// structs: after the first fire, every subsequent Schedule is served from the
// freelist with zero fresh allocations.
func TestScheduleReusesEvents(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	for i := 0; i < 100; i++ {
		k.Schedule(Time(i)*Millisecond, func() { fired++ })
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
// recycled from the last fire is the one the next Schedule hands out.
func TestScheduleReusesSameStruct(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(0, func() {})
	k.Run()
	if n := len(k.freeEvents); n != 1 {
		t.Fatalf("freelist len = %d, want 1", n)
	}
	recycled := k.freeEvents[0]
	k.Schedule(0, func() {})
	if k.cur[0] != recycled {
		t.Fatal("Schedule did not reuse the recycled event struct")
	}
	k.Run()
}

// TestAtEventsAreNotPooled pins the safety property that keeps held timer
// handles valid: events returned by At/After must never enter the freelist,
// because callers may Cancel them after they fired.
func TestAtEventsAreNotPooled(t *testing.T) {
	k := NewKernel(1)
	e := k.At(Millisecond, func() {})
	k.Run()
	if len(k.freeEvents) != 0 {
		t.Fatal("At event was recycled into the freelist")
	}
	e.Cancel() // must stay a safe no-op after firing
	k.Schedule(k.Now(), func() {})
	k.Run()
	if k.EventAllocs() != 1 {
		t.Fatalf("event allocs = %d, want 1", k.EventAllocs())
	}
}

// TestPooledEventsInterleaveWithTimers checks (when, seq) ordering is shared
// between pooled and handle events.
func TestPooledEventsInterleaveWithTimers(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.At(2*Millisecond, func() { order = append(order, 2) })
	k.Schedule(Millisecond, func() { order = append(order, 1) })
	k.ScheduleAfter(2*Millisecond, func() { order = append(order, 3) }) // same when, later seq
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
