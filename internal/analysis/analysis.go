// Package analysis implements simvet, a go/analysis suite that mechanically
// enforces this repository's determinism contract (DESIGN.md §8).
//
// Every experiment in this repo is only trustworthy because a scenario replays
// to an identical trace digest for a given seed. PRs 1–2 found and fixed a
// string of digest-breaking bugs by hand — map-iteration-order flaps in
// httpx/dot11/attack, RSSI ties decided by map order, stale event closures —
// and each of those bug classes is mechanical. This package turns them into
// analyzers so the contract is enforced by `go run ./cmd/simvet ./...` (and
// CI) rather than by reviewer vigilance:
//
//   - walltime:     no wall-clock time (time.Now, time.Sleep, …) in internal
//     simulator packages; all time flows from sim.Kernel's virtual clock.
//   - globalrand:   no global math/rand or crypto/rand in deterministic
//     paths; randomness is drawn from the kernel-seeded sim.RNG.
//   - maporder:     no order-sensitive work (appends, output, digest mixing,
//     kernel scheduling, data-dependent returns) inside a `for range` over a
//     map, unless the collected slice is subsequently sorted.
//   - tiebreak:     no sort comparator that orders by a single float key;
//     float ties (equal RSSI, equal loss rates) must break on a secondary
//     deterministic key.
//   - eventcapture: kernel-event closures must not capture loop variables,
//     and closures scheduled by generation-managed code must carry the
//     generation-guard idiom from internal/vpn/client.go.
//
// The subpackage internal/analysis/bufcheck contributes three further
// analyzers via Register — bufleak, bufuseafter and eventpool — which
// enforce the pkt.Buf ownership contract and the event-pool discipline
// (DESIGN.md §9.5) with a path-sensitive dataflow over each function's
// go/cfg control-flow graph rather than syntax matching. Their ownership
// vocabulary is a second directive, placed in the doc comment of the
// function that implements the contract:
//
//	//simvet:owner transfer|borrow <reason>
//
// transfer moves the release obligation to the callee; borrow keeps it with
// the caller. Directive hygiene (unknown mode, missing reason, function
// without a *pkt.Buf parameter, directive outside a doc comment) is
// validated by the simvetallow analyzer in the same scan pass that handles
// suppressions; see owner.go.
//
// A finding can be silenced only by an explicit, justified directive on the
// offending line (or the line above it):
//
//	//simvet:allow <analyzer> <reason>
//
// The reason is mandatory: a bare directive suppresses nothing and is itself
// flagged by the simvetallow analyzer, as are directives naming unknown
// analyzers and directives that no longer suppress anything. Suppressions are
// never silent — drivers surface them as notes in the tool output.
package analysis

import (
	"strings"

	"golang.org/x/tools/go/analysis"
)

// registered holds rule analyzers contributed by subpackages — the bufcheck
// ownership suite (internal/analysis/bufcheck) registers itself here from an
// init, which keeps the dependency arrow pointing one way (bufcheck imports
// this package for the directive/suppression machinery) while letting
// //simvet:allow directives name the contributed analyzers. Registration
// order is the subpackage's declaration order, so the suite stays stable.
var registered []*analysis.Analyzer

// Register adds rule analyzers to the simvet suite. Registering the same
// analyzer name twice panics: the name is the //simvet:allow vocabulary and
// must be unambiguous.
func Register(as ...*analysis.Analyzer) {
	for _, a := range as {
		for _, have := range Rules() {
			if have.Name == a.Name {
				panic("simvet: duplicate analyzer name " + a.Name)
			}
		}
		registered = append(registered, a)
	}
}

// All returns the simvet rule analyzers plus the simvetallow directive
// validator, in a stable order. This is the suite cmd/simvet runs. The
// bufcheck analyzers appear only when internal/analysis/bufcheck has been
// imported (cmd/simvet and the analysis tests import it).
func All() []*analysis.Analyzer {
	return append(Rules(), AllowAnalyzer)
}

// Rules returns just the rule analyzers (no directive validator): the five
// determinism rules plus any registered subpackage rules. Tests use it to
// exercise rules in isolation.
func Rules() []*analysis.Analyzer {
	base := []*analysis.Analyzer{
		WalltimeAnalyzer,
		GlobalrandAnalyzer,
		MaporderAnalyzer,
		TiebreakAnalyzer,
		EventcaptureAnalyzer,
	}
	return append(base, registered...)
}

// ruleNames is the set of analyzer names a //simvet:allow directive may cite.
func ruleNames() map[string]bool {
	m := make(map[string]bool)
	for _, a := range Rules() {
		m[a.Name] = true
	}
	return m
}

// deterministicScope reports whether pkg path is part of the simulator's
// deterministic core, where the wall-clock and global-randomness bans apply.
// cmd/ and examples/ are presentation layers: they may time their own wall
// clock (e.g. cmd/experiments prints each table's duration) without breaking
// replay.
// Paths without a slash are single-package test fixtures, always in scope.
func deterministicScope(path string) bool {
	return strings.Contains(path, "/internal/") || !strings.Contains(path, "/")
}
