// Package eventpool is the deliberate-violation fixture for the eventpool
// analyzer: callbacks canceling their own fired Timer.
package eventpool

import "repro/internal/sim"

type conn struct {
	k     *sim.Kernel
	timer sim.Timer
}

func selfCancelLocal(k *sim.Kernel) sim.Timer {
	var ev sim.Timer
	ev = k.After(5, func() {
		ev.Cancel() // want `callback cancels its own handle ev: the event has already fired`
	})
	return ev
}

func (c *conn) selfCancelField() {
	c.timer = c.k.After(5, func() {
		c.timer.Cancel() // want `callback cancels its own handle c\.timer: the event has already fired`
	})
}

func goodDroppedHandle(k *sim.Kernel) {
	k.At(5, func() {})
	k.After(5, func() {})
}

func goodCancelElsewhere(c *conn) {
	c.timer.Cancel()
	c.timer = c.k.After(5, func() {})
}

func (c *conn) goodRenewal() {
	c.timer = c.k.After(5, func() {
		// Reschedule through the same variable, then cancel the new handle on
		// some condition: the renewal exempts the pattern.
		c.timer = c.k.After(5, func() {})
		c.timer.Cancel()
	})
}

func (c *conn) goodSuppressedSelfCancel() {
	c.timer = c.k.At(5, func() {
		//simvet:allow eventpool fixture demonstrates a justified suppression
		c.timer.Cancel()
	})
}
