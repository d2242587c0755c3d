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
// At and After are the only ways to schedule. Both take the event struct
// from a per-kernel freelist and return a Timer; the struct goes back to the
// freelist once it fires or, cancelled, is dropped from the queue.
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

// event is a scheduled callback. Events fire in timestamp order; ties break
// by scheduling order (FIFO), which keeps causally related events stable.
// Every event comes from the kernel freelist and returns to it once it has
// fired or been dropped; callers hold a Timer, never the struct.
type event struct {
	when Time
	seq  uint64 // tie-break: insertion order; unique per kernel, never reused
	// fn is the callback. A queued event has a nil fn exactly when it was
	// cancelled (At rejects a nil fn, and step clears it only after the pop):
	// such events remain queued and are skipped when they surface.
	fn func()
}

// Timer is the cancellable handle At and After return. It names one
// scheduling of an event struct by its seq, so a Timer kept past the fire
// can never touch the struct once the freelist has reissued it.
type Timer struct {
	e   *event
	seq uint64
}

// Cancel prevents the event from firing by clearing its callback, which
// also releases the closure for GC. It acts only while the event still
// carries the timer's seq: cancelling a fired, dropped or already-cancelled
// event, or the zero Timer, is a no-op (recycled structs are zeroed, so a
// stale Timer whose seq is 0, like the kernel's first, finds a nil fn and
// clears nothing). Cancel is O(1); the event is lazily discarded when its
// wheel slot is loaded or it surfaces at a heap top.
func (t Timer) Cancel() {
	if e := t.e; e != nil && e.seq == t.seq {
		e.fn = nil
	}
}

// Kernel is a discrete-event simulator instance: a virtual clock, a
// time-wheel event queue (see wheel.go), and a deterministic random source.
type Kernel struct {
	now Time
	// Scheduler tiers (wheel.go): cur is the imminent (when, seq) heap for
	// events at or before the cursor tick; slots/occ/wheelCount are the
	// fixed-resolution wheel for the near-future window, and spare stacks
	// the emptied slot arrays for reuse; overflow is the far-future heap
	// that drains into the wheel as the cursor advances.
	cur        []*event
	slots      [][]*event
	spare      [][]*event
	occ        [occWords]uint64
	wheelCount int
	cursor     int64
	overflow   []*event

	seq     uint64
	rng     *RNG
	stopped bool
	// Stats
	fired uint64
	// digest is the streaming trace hash (see digest.go).
	digest traceDigest
	// invariants are the registered per-event-boundary checks (invariant.go);
	// they run after each fired event only when checkInvariants is set.
	invariants      []invariant
	checkInvariants bool
	// OnViolation, if non-nil, receives invariant violations instead of the
	// default panic. Tests install it to report violations as failures.
	OnViolation func(*InvariantViolation)
	// freeEvents is the event freelist. Plain LIFO, no sync.Pool: the kernel
	// is single-goroutine and reuse order must be a pure function of the
	// event sequence.
	freeEvents []*event
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

// At schedules fn to run at absolute virtual time t and returns a Timer
// that can cancel it. Scheduling in the past (t < Now) panics: it would
// violate causality and always indicates a bug in protocol code.
func (k *Kernel) At(t Time, fn func()) Timer {
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
	k.seq++
	k.insert(e)
	return Timer{e, e.seq}
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now+d, fn)
}

// getEvent takes a zeroed event from the freelist, or allocates one.
func (k *Kernel) getEvent() *event {
	if n := len(k.freeEvents); n > 0 {
		e := k.freeEvents[n-1]
		k.freeEvents[n-1] = nil
		k.freeEvents = k.freeEvents[:n-1]
		k.eventReuses++
		return e
	}
	k.eventAllocs++
	return &event{}
}

// recycle zeroes an event that has fired or been dropped and returns it to
// the freelist. A Timer still naming it no longer matches: the zeroed struct
// has no fn, and a reissued one carries a new seq.
func (k *Kernel) recycle(e *event) {
	*e = event{}
	k.freeEvents = append(k.freeEvents, e)
}

// EventAllocs reports how many events were freshly allocated.
func (k *Kernel) EventAllocs() uint64 { return k.eventAllocs }

// EventReuses reports how many events were served from the freelist.
func (k *Kernel) EventReuses() uint64 { return k.eventReuses }

// Stop halts Run/RunUntil after the currently executing event returns, and
// drains the event queue in O(pending): remaining events are dropped and
// recycled into the freelist. A stopped kernel never runs again, so a kernel
// with thousands of queued events stops promptly instead of popping each one
// through the scheduler.
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
	// Recycle only after fn returns, so an event scheduled from inside fn
	// never reuses the struct that is still firing.
	k.recycle(e)
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
