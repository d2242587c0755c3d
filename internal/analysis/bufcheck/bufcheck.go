// Package bufcheck is simvet's memory-ownership suite: a path-sensitive,
// CFG-based dataflow analysis over the repository's pooled packet buffers
// (*pkt.Buf) and pooled kernel events.
//
// The zero-copy encapsulation path (DESIGN.md §9) made every frame a
// refcounted buffer whose contract — release on every path including every
// error path, Retain before sharing, never touch after handoff — was until
// now enforced only dynamically, by the pool's poison-on-release debug mode,
// and only on the paths a scenario happened to execute. This package turns
// the contract into analyzers, the same move clang makes with consumed
// annotations, so a leaked or doubly released buffer is a build-time
// diagnostic instead of a cross-shard heisenbug:
//
//   - bufleak:     a function that acquires an owned buffer (pool Get/GetCopy,
//     pkt.Wrap, Retain — any call returning *pkt.Buf) must, on
//     every path to return, either Release it or transfer
//     ownership through a declared sink: a transfer-mode call,
//     a return value, a struct/slice/map store, or a channel
//     send. Calls that pass a buffer to a function with no
//     declared contract are themselves flagged.
//   - bufuseafter: no use of a buffer local after Release() or after an
//     ownership-transferring call, unless re-acquired via
//     Retain() first; double Release is the special case of
//     using a released buffer to release it again.
//   - eventpool:   kernel-event pool hygiene: a callback must not Cancel
//     the sim.Timer its own At/After call returned (the event
//     has already fired by the time it runs).
//
// Ownership conventions of called functions are declared at their definition
// with the //simvet:owner transfer|borrow directive (see internal/analysis,
// owner.go); a seeded facts table covers the cases a directive cannot reach —
// the SendBuf interface-method convention and the append/copy builtins. The
// analysis itself stays intra-procedural: every call site is checked against
// the callee's declared contract, never its body.
//
// The pkt package itself is exempt: it implements the lifecycle the
// vocabulary describes, so its internals (freelist stores, refcount
// manipulation) cannot be expressed in it.
package bufcheck

import (
	simvet "repro/internal/analysis"
)

// init contributes the three analyzers to the simvet suite in a fixed order.
// cmd/simvet and the analysis tests import this package, which is what makes
// //simvet:allow directives naming bufleak/bufuseafter/eventpool validate.
func init() {
	simvet.Register(BufleakAnalyzer, BufuseafterAnalyzer, EventpoolAnalyzer)
}
