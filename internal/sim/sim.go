// Package sim provides the discrete-event simulation kernel that every other
// substrate in this repository runs on.
//
// A Kernel owns a virtual clock and a priority queue of pending events.
// Nothing in the simulation touches wall-clock time or host I/O: all protocol
// timers (beacon intervals, TCP retransmission timeouts, ARP cache aging, VPN
// rekeys) are events on this queue, which makes every run deterministic for a
// given seed and very fast — a simulated minute of 802.11 traffic executes in
// milliseconds.
//
// A kernel is deliberately single-goroutine: one World, one serial event
// loop, so protocol code stays free of locks and results reproducible.
// Parallelism happens *across* independent kernels (see core.Sweep).
package sim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/pkt"
)

// Time is a virtual timestamp, measured as a duration since the simulation
// epoch (t=0). It is a distinct type so that virtual and wall-clock times can
// never be mixed accidentally.
type Time time.Duration

// Common virtual-time constants re-exported for convenience.
const (
	Nanosecond  Time = Time(time.Nanosecond)
	Microsecond Time = Time(time.Microsecond)
	Millisecond Time = Time(time.Millisecond)
	Second      Time = Time(time.Second)
	Minute      Time = Time(time.Minute)
	Hour        Time = Time(time.Hour)
)

// MaxTime is the largest representable virtual time; used as "never".
const MaxTime Time = Time(math.MaxInt64)

// Duration converts t to a time.Duration since the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Add returns t shifted by d.
func (t Time) Add(d Time) Time { return t + d }

// Sub returns the interval t-u.
func (t Time) Sub(u Time) Time { return t - u }

// String formats the timestamp with time.Duration semantics.
func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback. Events fire in timestamp order; ties break
// by scheduling order (FIFO), which keeps causally related events stable.
type Event struct {
	when Time
	seq  uint64 // tie-break: insertion order
	fn   func()
	// cancelled events remain queued but are skipped when they surface.
	cancelled bool
	// pooled events came from the kernel freelist (Schedule/ScheduleAfter)
	// and are recycled after firing. Events whose *Event handle escapes to a
	// caller (At/After) are never pooled: the caller may hold the handle past
	// the fire and a recycled struct would alias a live timer.
	pooled bool
}

// When reports the virtual time at which the event is scheduled to fire.
func (e *Event) When() Time { return e.when }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancel is O(1); the event is lazily
// discarded when its wheel slot is loaded or it surfaces at a heap top.
func (e *Event) Cancel() {
	if e != nil {
		e.cancelled = true
		e.fn = nil // release closure for GC
	}
}

// Cancelled reports whether Cancel has been called on the event.
func (e *Event) Cancelled() bool { return e != nil && e.cancelled }

// Kernel is a discrete-event simulator instance: a virtual clock, a
// time-wheel event queue (see wheel.go), and a deterministic random source.
type Kernel struct {
	now Time
	// Scheduler tiers (wheel.go): cur is the imminent (when, seq) heap for
	// events at or before the cursor tick; slots/occ/wheelCount are the
	// fixed-resolution wheel for the near-future window; overflow is the
	// far-future heap that drains into the wheel as the cursor advances.
	cur        []*Event
	slots      [][]*Event
	occ        [occWords]uint64
	wheelCount int
	cursor     int64
	overflow   []*Event

	seq     uint64
	rng     *RNG
	stopped bool
	// Stats
	fired uint64
	// Tracer, if non-nil, receives a line for each significant kernel action.
	Tracer Tracer
	// digest is the streaming trace hash (see digest.go).
	digest traceDigest
	// invariants are the registered per-event-boundary checks (invariant.go);
	// they run after each fired event only when checkInvariants is set.
	invariants      []invariant
	checkInvariants bool
	// OnViolation, if non-nil, receives invariant violations instead of the
	// default panic. Tests install it to report violations as failures.
	OnViolation func(*InvariantViolation)
	// freeEvents is the freelist for pooled (handle-less) events. Plain LIFO,
	// no sync.Pool: the kernel is single-goroutine and reuse order must be a
	// pure function of the event sequence.
	freeEvents []*Event
	// eventAllocs/eventReuses count freelist traffic (tests, diagnostics).
	eventAllocs uint64
	eventReuses uint64
	// bufPool recycles packet buffers for every layer running on this kernel.
	bufPool *pkt.Pool
}

// NewKernel returns a kernel at t=0 whose random source is seeded with seed.
func NewKernel(seed uint64) *Kernel {
	// The wheel slot table (slots) is allocated lazily on the first
	// near-future insert (wheel.go): experiment sweeps build thousands of
	// short-lived kernels, and the table is the largest single-shot
	// allocation a kernel makes.
	return &Kernel{
		rng:     NewRNG(seed),
		digest:  newTraceDigest(),
		bufPool: pkt.NewPool(),
	}
}

// BufPool returns the kernel's packet-buffer pool. Every layer running on
// this kernel draws frame buffers from here so they recycle across hops.
func (k *Kernel) BufPool() *pkt.Pool { return k.bufPool }

// BeginDelivery opens a delivery barrier: until the matching EndDelivery,
// packet buffers released by any layer are parked in the pool's arena and
// recycled together when the barrier closes. The phy wraps each
// transmission's receiver fan-out in one, so a buffer view handed to many
// receivers in the same completion event cannot be recycled — and its bytes
// overwritten — while later receivers in the fan-out still read it.
// Barriers nest; only the outermost EndDelivery flushes the arena.
func (k *Kernel) BeginDelivery() { k.bufPool.BeginBatch() }

// EndDelivery closes the innermost delivery barrier.
func (k *Kernel) EndDelivery() { k.bufPool.EndBatch() }

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// RNG returns the kernel's deterministic random source.
func (k *Kernel) RNG() *RNG { return k.rng }

// Fired reports how many events have been executed so far.
func (k *Kernel) Fired() uint64 { return k.fired }

// Pending reports how many events are queued (including cancelled ones that
// have not yet been discarded).
func (k *Kernel) Pending() int { return len(k.cur) + k.wheelCount + len(k.overflow) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) panics: it would violate causality and always indicates a bug in
// protocol code.
func (k *Kernel) At(t Time, fn func()) *Event {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v t=%v", k.now, t))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	e := &Event{when: t, seq: k.seq, fn: fn}
	k.seq++
	k.insert(e)
	return e
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now+d, fn)
}

// Schedule is the handle-less, pooled variant of At: the Event struct comes
// from the kernel's freelist and returns to it right after fn fires, so
// fire-and-forget call sites (frame deliveries, transmit completions) stop
// allocating an Event per packet. Because the struct is recycled, Schedule
// returns nothing — use At when the caller needs to Cancel.
func (k *Kernel) Schedule(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past: now=%v t=%v", k.now, t))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	e := k.getEvent()
	e.when = t
	e.seq = k.seq
	e.fn = fn
	e.pooled = true
	k.seq++
	k.insert(e)
}

// ScheduleAfter is the handle-less, pooled variant of After.
func (k *Kernel) ScheduleAfter(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	k.Schedule(k.now+d, fn)
}

// getEvent takes an Event from the freelist, or allocates one.
func (k *Kernel) getEvent() *Event {
	if n := len(k.freeEvents); n > 0 {
		e := k.freeEvents[n-1]
		k.freeEvents[n-1] = nil
		k.freeEvents = k.freeEvents[:n-1]
		k.eventReuses++
		return e
	}
	k.eventAllocs++
	return &Event{}
}

// EventAllocs reports how many pooled events were freshly allocated.
func (k *Kernel) EventAllocs() uint64 { return k.eventAllocs }

// EventReuses reports how many pooled events were served from the freelist.
func (k *Kernel) EventReuses() uint64 { return k.eventReuses }

// Stop halts Run/RunUntil after the currently executing event returns, and
// drains the event queue in O(pending): remaining events are dropped (their
// closures released for GC) and pooled ones are recycled into the freelist.
// A stopped kernel never runs again, so a kernel with thousands of queued
// events stops promptly instead of popping each one through the scheduler.
func (k *Kernel) Stop() {
	k.stopped = true
	k.drainQueue()
}

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// step executes the next pending event, advancing the clock to its timestamp.
// It reports false when the queue is empty.
func (k *Kernel) step() bool {
	e := k.nextEvent()
	if e == nil {
		return false
	}
	if e.when < k.now {
		panic("sim: event queue time went backwards")
	}
	k.now = e.when
	fn := e.fn
	e.fn = nil
	k.fired++
	k.mixEvent(e)
	fn()
	if e.pooled {
		// Recycle after fn returns: nothing holds a handle to a pooled
		// event, so the struct can be reissued by the next Schedule.
		*e = Event{}
		k.freeEvents = append(k.freeEvents, e)
	}
	if k.checkInvariants {
		k.runInvariants()
	}
	return true
}

// Run executes events until the queue drains or Stop is called, and reports
// the number of events fired.
func (k *Kernel) Run() uint64 {
	start := k.fired
	for !k.stopped && k.step() {
	}
	return k.fired - start
}

// RunUntil executes events with timestamps <= deadline, leaving later events
// queued, and advances the clock to exactly deadline. It reports the number
// of events fired.
func (k *Kernel) RunUntil(deadline Time) uint64 {
	if deadline < k.now {
		panic(fmt.Sprintf("sim: RunUntil into the past: now=%v deadline=%v", k.now, deadline))
	}
	start := k.fired
	for !k.stopped {
		next, ok := k.peekWhen()
		if !ok || next > deadline {
			break
		}
		k.step()
	}
	if k.now < deadline {
		k.now = deadline
	}
	return k.fired - start
}

// RunFor executes events for a span d of virtual time starting now.
func (k *Kernel) RunFor(d Time) uint64 { return k.RunUntil(k.now + d) }

// Tracer receives human-readable trace lines from the kernel and from
// protocol modules that choose to log. A nil Tracer is silent.
type Tracer interface {
	Trace(t Time, component, format string, args ...any)
}

// Tracef logs through the kernel's tracer, if any.
func (k *Kernel) Tracef(component, format string, args ...any) {
	if k.Tracer != nil {
		k.Tracer.Trace(k.now, component, format, args...)
	}
}

// FuncTracer adapts a print-style function into a Tracer.
type FuncTracer func(t Time, component, format string, args ...any)

// Trace implements Tracer.
func (f FuncTracer) Trace(t Time, component, format string, args ...any) {
	f(t, component, format, args...)
}
