package sim

import (
	"container/heap"
	"fmt"
	"testing"
)

// The differential scheduler rig pins the time wheel (wheel.go) to the
// binary-heap scheduler it replaced: the reference below is the original
// container/heap event queue, kept verbatim in test code, and both schedulers
// are driven through identical op scripts — At/After with kept and dropped
// handles, cancel-while-queued, cancel-then-reschedule, same-tick ties, run
// bursts — with events that spawn more events as they fire. Identical fire
// order, fire times, and final clocks are required. FuzzSchedulerOps feeds
// the same driver with arbitrary scripts.
//
// The reference never reuses an event, so its handles never go stale, while
// the kernel recycles every event struct. Scripts keep every handle and
// cancel fired ones at random, which makes the reference the oracle for
// stale Timers: a stale Cancel that hits a reissued struct drops an event
// the reference fires.

// refEvent/refQueue/refSched are the pre-wheel scheduler, verbatim: a
// container/heap min-heap ordered by (when, seq) with lazy cancellation.
type refEvent struct {
	when      Time
	seq       uint64
	fn        func()
	index     int
	cancelled bool
}

func (e *refEvent) Cancel() {
	if e != nil {
		e.cancelled = true
		e.fn = nil
	}
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }

func (q refQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}

func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

type refSched struct {
	now   Time
	queue refQueue
	seq   uint64
}

func (r *refSched) at(t Time, fn func()) *refEvent {
	if t < r.now {
		panic(fmt.Sprintf("ref: scheduling into the past: now=%v t=%v", r.now, t))
	}
	e := &refEvent{when: t, seq: r.seq, fn: fn, index: -1}
	r.seq++
	heap.Push(&r.queue, e)
	return e
}

func (r *refSched) step() bool {
	for len(r.queue) > 0 {
		e := heap.Pop(&r.queue).(*refEvent)
		if e.cancelled {
			continue
		}
		r.now = e.when
		fn := e.fn
		e.fn = nil
		fn()
		return true
	}
	return false
}

func (r *refSched) run() {
	for r.step() {
	}
}

func (r *refSched) runUntil(deadline Time) {
	for {
		for len(r.queue) > 0 && r.queue[0].cancelled {
			heap.Pop(&r.queue)
		}
		if len(r.queue) == 0 || r.queue[0].when > deadline {
			break
		}
		r.step()
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// canceller is the common surface of Timer and *refEvent handles.
type canceller interface{ Cancel() }

// scheduler abstracts the wheel kernel and the reference heap so one driver
// can run the same script against both.
type scheduler interface {
	Now() Time
	At(t Time, fn func()) canceller
	RunFor(d Time)
	Run()
}

// wheelAdapter drives a Kernel.
type wheelAdapter struct{ k *Kernel }

func (w wheelAdapter) Now() Time                      { return w.k.Now() }
func (w wheelAdapter) At(t Time, fn func()) canceller { return w.k.At(t, fn) }
func (w wheelAdapter) RunFor(d Time)                  { w.k.RunFor(d) }
func (w wheelAdapter) Run()                           { w.k.Run() }

type refAdapter struct{ r *refSched }

func (a refAdapter) Now() Time                      { return a.r.now }
func (a refAdapter) At(t Time, fn func()) canceller { return a.r.at(t, fn) }
func (a refAdapter) RunFor(d Time)                  { a.r.runUntil(a.r.now + d) }
func (a refAdapter) Run()                           { a.r.run() }

// op is one decoded script entry.
type op struct {
	kind  byte
	delay Time
	arg   uint16
}

// The kinds keep their numbering so the committed FuzzSchedulerOps corpus
// decodes to the same scripts; the two "Dropped" kinds schedule without
// keeping the handle.
const (
	opAt byte = iota
	opAfter
	opAtDropped
	opAfterDropped
	opCancel
	opReschedule
	opRunFor
	opKinds
)

// decodeOps turns an arbitrary byte string into a bounded op script. Four
// bytes per op: kind, 16-bit magnitude, scale class. The scale classes are
// chosen to hit every scheduler tier: raw nanoseconds (sub-slot and same-tick
// ties), microseconds (within the wheel window), 64µs steps (spanning the
// window boundary into overflow), and zero (schedule exactly at now).
func decodeOps(data []byte) []op {
	const maxOps = 512
	var script []op
	for i := 0; i+3 < len(data) && len(script) < maxOps; i += 4 {
		mag := uint16(data[i+1]) | uint16(data[i+2])<<8
		var d Time
		switch data[i+3] % 4 {
		case 0:
			d = Time(mag) // ns: sub-resolution
		case 1:
			d = Time(mag) * Microsecond // in-window
		case 2:
			d = Time(mag) * 64 * Microsecond // up to ~4.2s: overflow
		case 3:
			d = 0 // same-tick / at-now
		}
		script = append(script, op{kind: data[i] % opKinds, delay: d, arg: mag})
	}
	return script
}

// fireRec is one fired event in a run's log.
type fireRec struct {
	id   int
	when Time
}

// splitmix64 is the child-spawn rule's hash: a pure function of the event id
// so both schedulers derive identical children without sharing state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// runScript interprets one op script against a scheduler and returns the
// fire log. A quarter of fired events spawn a child (half with a retained
// handle, half with a dropped one), so fire-time scheduling — including At
// exactly at now — is exercised on every run.
func runScript(s scheduler, script []op) (log []fireRec, final Time) {
	var handles []canceller
	nextID := 0
	var spawn func(id int) func()
	spawn = func(id int) func() {
		return func() {
			log = append(log, fireRec{id, s.Now()})
			h := splitmix64(uint64(id))
			if h%4 == 0 {
				d := Time(h >> 8 % uint64(2*Millisecond))
				child := spawn(nextID)
				nextID++
				if h%8 == 0 {
					handles = append(handles, s.At(s.Now()+d, child))
				} else {
					s.At(s.Now()+d, child)
				}
			}
		}
	}
	newEvent := func() func() {
		fn := spawn(nextID)
		nextID++
		return fn
	}
	for _, o := range script {
		switch o.kind {
		case opAt, opAfter: // both resolve to an absolute time pre-run
			handles = append(handles, s.At(s.Now()+o.delay, newEvent()))
		case opAtDropped, opAfterDropped:
			s.At(s.Now()+o.delay, newEvent())
		case opCancel:
			if len(handles) > 0 {
				handles[int(o.arg)%len(handles)].Cancel()
			}
		case opReschedule:
			if len(handles) > 0 {
				handles[int(o.arg)%len(handles)].Cancel()
			}
			handles = append(handles, s.At(s.Now()+o.delay, newEvent()))
		case opRunFor:
			s.RunFor(o.delay)
		}
	}
	s.Run()
	return log, s.Now()
}

// diffSchedulers runs one script against the reference heap and the time
// wheel, and reports the first divergence, if any.
func diffSchedulers(t testing.TB, script []op) {
	t.Helper()
	refLog, refEnd := runScript(refAdapter{&refSched{}}, script)
	log, end := runScript(wheelAdapter{NewKernel(1)}, script)
	if len(log) != len(refLog) {
		t.Fatalf("wheel fired %d events, reference heap fired %d", len(log), len(refLog))
	}
	for i := range log {
		if log[i] != refLog[i] {
			t.Fatalf("fire %d diverged: wheel (id=%d at %v), reference (id=%d at %v)",
				i, log[i].id, log[i].when, refLog[i].id, refLog[i].when)
		}
	}
	if end != refEnd {
		t.Fatalf("final clocks diverged: wheel %v, reference %v", end, refEnd)
	}
}

// TestDifferentialSchedulerRandomOps drives seeded randomized op scripts
// through both schedulers. The scripts deliberately mix same-tick ties,
// cancel-while-queued, reschedules, horizon-crossing delays, and run bursts.
func TestDifferentialSchedulerRandomOps(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1 << 40, 0xdeadbeef} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := NewRNG(seed)
			raw := make([]byte, 4*400)
			rng.Bytes(raw)
			diffSchedulers(t, decodeOps(raw))
		})
	}
}

// TestDifferentialSchedulerDirectedCases pins the hand-written edge scripts
// the fuzz corpus also carries, so a corpus loss never loses the coverage.
func TestDifferentialSchedulerDirectedCases(t *testing.T) {
	for _, c := range directedSchedulerCases() {
		t.Run(c.name, func(t *testing.T) {
			diffSchedulers(t, decodeOps(c.data))
		})
	}
}

// directedSchedulerCases are byte scripts for known-delicate scheduler
// interleavings; shared by the directed test and the fuzz seed corpus.
func directedSchedulerCases() []struct {
	name string
	data []byte
} {
	return []struct {
		name string
		data []byte
	}{
		// Ten events on the same tick: pure seq-order FIFO.
		{"same-tick-ties", []byte{
			opAt, 0, 0, 3, opAtDropped, 0, 0, 3, opAt, 0, 0, 3, opAtDropped, 0, 0, 3,
			opAt, 0, 0, 3, opAtDropped, 0, 0, 3, opAt, 0, 0, 3, opAtDropped, 0, 0, 3,
			opAt, 0, 0, 3, opAtDropped, 0, 0, 3,
		}},
		// Sub-resolution deltas inside one slot must still fire by (when, seq).
		{"sub-slot-order", []byte{
			opAt, 40, 0, 0, opAt, 10, 0, 0, opAtDropped, 30, 0, 0, opAt, 10, 0, 0,
			opAtDropped, 0, 0, 0, opAt, 25, 0, 0,
		}},
		// Far-future events beyond the wheel horizon, interleaved with near.
		{"overflow-promotion", []byte{
			opAt, 0xff, 0xff, 2, opAtDropped, 1, 0, 1, opAt, 0xff, 0xff, 2,
			opAtDropped, 0xff, 0xff, 2, opAt, 5, 0, 1, opRunFor, 0xff, 0xff, 2,
		}},
		// Cancel queued handles, then reschedule at the cancelled times.
		{"cancel-reschedule", []byte{
			opAt, 100, 0, 1, opAt, 200, 0, 1, opCancel, 0, 0, 0,
			opReschedule, 100, 0, 1, opCancel, 1, 0, 0, opRunFor, 0xff, 0xff, 1,
			opAt, 50, 0, 1,
		}},
		// Run bursts that leave the queue non-empty between ops.
		{"run-bursts", []byte{
			opAt, 10, 0, 1, opAt, 0xe8, 3, 1, opRunFor, 0x64, 0, 1,
			opAtDropped, 10, 0, 1, opRunFor, 0x64, 0, 1, opAt, 1, 0, 2,
		}},
		// Bulk fan-out, as campus construction and the fault engine make
		// it: runs of dropped-handle calls landing on one future wheel
		// tick, a retained-handle At and a later time inside the same tick,
		// at-now and overflow entries in between, then more fan-out after a
		// run burst has moved the clock.
		{"bulk-fanout", []byte{
			opAtDropped, 0xe8, 3, 1, opAtDropped, 0xe8, 3, 1, opAt, 0xe8, 3, 1,
			opAtDropped, 0xe9, 3, 1, opAfterDropped, 0xe8, 3, 1, opAtDropped, 0, 0, 3,
			opAtDropped, 0xff, 0xff, 2, opAtDropped, 0xe8, 3, 1, opRunFor, 0x40, 0, 1,
			opAtDropped, 0xe8, 3, 1, opAfterDropped, 0xe8, 3, 1, opAt, 0xe9, 3, 1,
		}},
		// The kernel's first Timer (seq 0) goes stale: its event fires, its
		// struct is reissued, fires again and is recycled, so it sits zeroed
		// on the freelist — and a zeroed struct carries seq 0 too. Cancelling
		// the stale Timer there must not cancel the At that reissues it next.
		{"stale-first-handle", []byte{
			opAt, 10, 0, 0, opRunFor, 100, 0, 1, opAfterDropped, 10, 0, 0,
			opRunFor, 100, 0, 1, opCancel, 0, 0, 0, opAt, 10, 0, 0,
		}},
	}
}

// FuzzSchedulerOps lets the fuzzer search for any op interleaving where the
// time wheel and the reference heap disagree on fire order, fire times, or
// the final clock.
func FuzzSchedulerOps(f *testing.F) {
	f.Add([]byte{})
	for _, c := range directedSchedulerCases() {
		f.Add(c.data)
	}
	rng := NewRNG(99)
	raw := make([]byte, 4*64)
	rng.Bytes(raw)
	f.Add(raw)
	f.Fuzz(func(t *testing.T, data []byte) {
		diffSchedulers(t, decodeOps(data))
	})
}
