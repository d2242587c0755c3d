package sim

import (
	"fmt"
	"math/bits"
)

// The event queue is a hierarchical time wheel with a heap overflow tier,
// replacing the original container/heap binary heap (kept verbatim as the
// reference scheduler in differential_test.go). The scheduler is the floor
// under every simulated packet, retransmit, and fault apply/revert, so its
// cost is what bounds kernel events/sec (BenchmarkKernelEventsPerSec).
//
// Layout:
//
//   - Near-future events — within wheelSpan of the wheel cursor — land in
//     fixed-resolution slots: slot index = (when >> slotShift) & wheelMask.
//     Insertion is an O(1) append; a slot holds exactly one tick's events at
//     a time (the window is exactly wheelSlots ticks wide), in arrival
//     order, which is seq order.
//   - Imminent events — at or before the cursor tick — go to a small binary
//     heap (cur), ordered by (when, seq). When the cursor reaches a slot its
//     events move into cur in one batch; events scheduled mid-fire for the
//     current tick (an At at now) join cur directly, so the exact (when,
//     seq) fire order of the reference heap is preserved even though most
//     events never touch a heap.
//   - Far-future events — beyond the window — overflow to a second small
//     heap and are promoted into slots as the cursor advances. Promotion
//     pops in (when, seq) order, so same-tick overflow events arrive in
//     their slot in seq order like directly inserted ones.
//
// A loaded slot's backing array goes onto a spare stack and the slot is
// nilled; an insert into an empty slot pops a spare, so slot storage is
// reused across slot indices and reaches a steady state with no per-event
// growth.
//
// Cancel stays lazy everywhere: cancelled events (those whose fn Cancel
// cleared) are dropped when their slot is loaded or when they surface at the
// top of a heap, and every drop site recycles the struct into the freelist,
// as a fire does.
//
// The occupancy bitmap makes "next non-empty slot" a word scan instead of a
// slot scan; when the wheel is empty the cursor jumps straight to the
// overflow minimum, so an idle stretch (a convergence window with only a
// far-future timer pending) costs O(1), not O(elapsed ticks).

const (
	// slotShift sets the wheel resolution: events within the same
	// 2^slotShift ns tick share a slot. 32.768µs spans a handful of frame
	// exchanges but splits distinct protocol timers.
	slotShift = 15
	// wheelBits sets the slot count; the window covers wheelSlots ticks
	// (~134ms at slotShift 15) — beacon intervals and most protocol timers
	// in-window, multi-second backoffs and keepalives in overflow.
	wheelBits  = 12
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	occWords   = wheelSlots / 64
)

// tickOf maps a virtual time to its wheel tick.
func tickOf(t Time) int64 { return int64(t) >> slotShift }

// eventLess is the scheduler's total order: fire time, then scheduling
// sequence (FIFO for ties). seq is unique, so the order is strict.
func eventLess(a, b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// heapPush inserts e into the (when, seq) min-heap h.
func heapPush(h *[]*event, e *event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	*h = q
}

// heapPop removes and returns the minimum of h.
func heapPop(h *[]*event) *event {
	q := *h
	min := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventLess(q[l], q[small]) {
			small = l
		}
		if r < n && eventLess(q[r], q[small]) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	*h = q
	return min
}

// insert places a newly scheduled event into the tier its timestamp calls
// for. The caller has already assigned when/seq and validated causality.
func (k *Kernel) insert(e *event) {
	tk := tickOf(e.when)
	switch {
	case tk <= k.cursor:
		heapPush(&k.cur, e)
	case tk <= k.cursor+wheelSlots:
		if k.slots == nil {
			// Lazy slot table: ~100 KB per kernel, paid only once an event
			// actually lands in the wheel window. Kernels that stay in the
			// imminent heap or overflow tier never allocate it.
			k.slots = make([][]*event, wheelSlots)
		}
		s := tk & wheelMask
		slot := k.slots[s]
		if slot == nil {
			slot = k.popSpare()
		}
		k.slots[s] = append(slot, e)
		k.occ[s>>6] |= 1 << uint(s&63)
		k.wheelCount++
	default:
		heapPush(&k.overflow, e)
	}
}

// promote drains overflow events whose tick has entered the wheel window.
// Pops come in (when, seq) order, so same-slot promotions preserve seq order.
func (k *Kernel) promote() {
	for len(k.overflow) > 0 && tickOf(k.overflow[0].when) <= k.cursor+wheelSlots {
		k.insert(heapPop(&k.overflow))
	}
}

// popSpare takes an emptied slot array off the spare stack, or returns nil
// (append then allocates) when none is left.
func (k *Kernel) popSpare() []*event {
	n := len(k.spare)
	if n == 0 {
		return nil
	}
	slot := k.spare[n-1]
	k.spare[n-1] = nil
	k.spare = k.spare[:n-1]
	return slot
}

// releaseSlot empties slot s, moving its backing array onto the spare stack
// for the next insert into an empty slot. A slot's arrays thus follow the
// events, not the slot index: the cursor turns the window every ~134 ms, so
// in a short world nearly every insert is the first into its slot, and
// arrays kept per slot would be allocated afresh almost every time. The
// arrays in existence are bounded by the peak number of occupied slots.
func (k *Kernel) releaseSlot(s int64) {
	k.spare = append(k.spare, k.slots[s][:0])
	k.slots[s] = nil
	k.occ[s>>6] &^= 1 << uint(s&63)
}

// loadSlot moves the cursor slot's events into the imminent heap, dropping
// cancelled ones, and releases the slot's array to the spare stack.
func (k *Kernel) loadSlot() {
	s := k.cursor & wheelMask
	slot := k.slots[s]
	if len(slot) == 0 {
		return
	}
	k.wheelCount -= len(slot)
	for i, e := range slot {
		if e.fn == nil { // cancelled
			k.recycle(e)
		} else {
			heapPush(&k.cur, e)
		}
		slot[i] = nil
	}
	k.releaseSlot(s)
}

// nextOccupied returns the tick of the first occupied slot after the cursor.
// The window is (cursor, cursor+wheelSlots], so the first set bit in circular
// slot order after the cursor slot is the earliest tick. Must only be called
// with wheelCount > 0.
func (k *Kernel) nextOccupied() int64 {
	start := (k.cursor + 1) & wheelMask
	// Partial first word, then whole words, wrapping once.
	w := k.occ[start>>6] >> uint(start&63)
	if w != 0 {
		s := start + int64(bits.TrailingZeros64(w))
		return k.cursor + 1 + ((s - start) & wheelMask)
	}
	for i := int64(1); i <= occWords; i++ {
		idx := ((start >> 6) + i) & (occWords - 1)
		if w := k.occ[idx]; w != 0 {
			s := idx<<6 + int64(bits.TrailingZeros64(w))
			return k.cursor + 1 + ((s - start) & wheelMask)
		}
	}
	panic("sim: wheel count positive but no occupied slot")
}

// advance moves the cursor to the next tick holding events and loads it.
// Precondition: the imminent heap is empty and some event is queued.
// loadSlot must precede promote: a promoted event at exactly
// cursor+wheelSlots lands in the cursor's slot index, which must already be
// drained or it would ride into cur a full window early.
func (k *Kernel) advance() {
	if k.wheelCount == 0 {
		// Idle jump: the whole window moves to the overflow minimum, whose
		// own promotion lands directly in cur (its tick == cursor).
		k.cursor = tickOf(k.overflow[0].when)
		k.promote()
		return
	}
	k.cursor = k.nextOccupied()
	k.loadSlot()
	k.promote()
}

// nextEvent pops the earliest live event, discarding cancelled ones, or
// returns nil when the queue is empty.
func (k *Kernel) nextEvent() *event {
	for {
		for len(k.cur) > 0 {
			e := heapPop(&k.cur)
			if e.fn == nil { // cancelled
				k.recycle(e)
				continue
			}
			return e
		}
		if k.wheelCount == 0 && len(k.overflow) == 0 {
			return nil
		}
		k.advance()
	}
}

// peekWhen reports the fire time of the earliest live event without firing
// it. It may discard cancelled events and advance the cursor (never the
// clock); the next nextEvent call returns exactly the peeked event.
func (k *Kernel) peekWhen() (Time, bool) {
	for {
		for len(k.cur) > 0 {
			if k.cur[0].fn == nil { // cancelled
				k.recycle(heapPop(&k.cur))
				continue
			}
			return k.cur[0].when, true
		}
		if k.wheelCount == 0 && len(k.overflow) == 0 {
			return 0, false
		}
		k.advance()
	}
}

// drainQueue empties every tier in O(pending), recycling every event into
// the freelist so a stopping kernel with thousands of queued events neither
// walks them through a heap one pop at a time nor leaks its event pool.
func (k *Kernel) drainQueue() {
	drain := func(list []*event) {
		for i, e := range list {
			k.recycle(e)
			list[i] = nil
		}
	}
	drain(k.cur)
	k.cur = k.cur[:0]
	for w, word := range k.occ {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			s := int64(w)<<6 + int64(b)
			drain(k.slots[s])
			k.releaseSlot(s)
		}
	}
	k.wheelCount = 0
	drain(k.overflow)
	k.overflow = k.overflow[:0]
}

// checkScheduler is the kernel's own per-event-boundary invariant (reported
// as "sim/heap-monotonic", the name it carried when the queue was a plain
// heap): no tier may hold an event behind the clock, and the wheel's
// structural bookkeeping — occupancy bits, one-tick-per-slot, window bounds,
// the wheel population count, the overflow horizon — must be consistent.
// Pure observation; runs only when invariant checks are enabled.
func (k *Kernel) checkScheduler() error {
	if w, ok := k.earliestQueued(); ok && w < k.now {
		return fmt.Errorf("earliest queued event at %v behind clock %v", w, k.now)
	}
	counted := 0
	for w, word := range k.occ {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			s := int64(w)<<6 + int64(b)
			slot := k.slots[s]
			if len(slot) == 0 {
				return fmt.Errorf("slot %d marked occupied but empty", s)
			}
			tk := tickOf(slot[0].when)
			if tk <= k.cursor || tk > k.cursor+wheelSlots {
				return fmt.Errorf("slot %d holds tick %d outside window (%d, %d]",
					s, tk, k.cursor, k.cursor+wheelSlots)
			}
			if tk&wheelMask != s {
				return fmt.Errorf("tick %d filed in slot %d, want %d", tk, s, tk&wheelMask)
			}
			for _, e := range slot {
				if tickOf(e.when) != tk {
					return fmt.Errorf("slot %d mixes ticks %d and %d", s, tk, tickOf(e.when))
				}
			}
			counted += len(slot)
		}
	}
	if counted != k.wheelCount {
		return fmt.Errorf("wheel count %d but slots hold %d events", k.wheelCount, counted)
	}
	for i, slot := range k.spare {
		if len(slot) != 0 {
			return fmt.Errorf("spare slot array %d holds %d events", i, len(slot))
		}
	}
	if len(k.overflow) > 0 {
		if tk := tickOf(k.overflow[0].when); tk <= k.cursor+wheelSlots {
			return fmt.Errorf("overflow head tick %d inside wheel window ending at %d",
				tk, k.cursor+wheelSlots)
		}
	}
	return nil
}

// earliestQueued reports the earliest queued timestamp across all tiers,
// including cancelled events (which can never be earlier than a live event
// was at schedule time). Pure observation for the invariant checker — unlike
// peekWhen it never mutates the wheel.
func (k *Kernel) earliestQueued() (Time, bool) {
	best := MaxTime
	found := false
	if len(k.cur) > 0 {
		best, found = k.cur[0].when, true
	}
	for w, word := range k.occ {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			for _, e := range k.slots[int64(w)<<6+int64(b)] {
				if e.when < best {
					best, found = e.when, true
				}
			}
		}
	}
	if len(k.overflow) > 0 && k.overflow[0].when < best {
		best, found = k.overflow[0].when, true
	}
	return best, found
}
