package vpn

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/inet"
)

// Flood-based distance-vector routing for the overlay (overlay.go): each
// node advertises the prefixes it terminates at 1 hop, neighbours re-flood
// reachable prefixes at best+1 with poisoned reverse back toward the next
// hop, and withdrawals (hops = 0xff) flood everywhere. Metrics cap at the
// maxHops, which bounds count-to-infinity churn.

// maxHops is the metric ceiling: an advertisement at or beyond it is a
// withdrawal.
const maxHops = 16

// hopsUnreachable is the on-wire withdrawal metric.
const hopsUnreachable = 0xff

// adEntry is one advertised prefix: where it can be reached and how far
// away it is (in overlay links, from the receiver's point of view).
type adEntry struct {
	prefix inet.Prefix
	hops   int
}

// adEntrySize is the wire size of one entry: addr(4) || bits(1) || hops(1).
const adEntrySize = 6

// encodeRouteAd packs advertisement entries into an ovRouteAdv body.
func encodeRouteAd(entries []adEntry) []byte {
	out := make([]byte, 0, len(entries)*adEntrySize)
	for _, e := range entries {
		out = append(out, e.prefix.Addr[:]...)
		out = append(out, byte(e.prefix.Bits), byte(e.hops))
	}
	return out
}

// decodeRouteAd parses an ovRouteAdv body. Prefixes must be canonical (no
// host bits set) so one route cannot masquerade as many table entries.
func decodeRouteAd(body []byte) ([]adEntry, bool) {
	if len(body)%adEntrySize != 0 || len(body)/adEntrySize > 256 {
		return nil, false
	}
	entries := make([]adEntry, 0, len(body)/adEntrySize)
	for i := 0; i < len(body); i += adEntrySize {
		var a inet.Addr
		copy(a[:], body[i:i+4])
		p := inet.Prefix{Addr: a, Bits: int(body[i+4])}
		if p.Bits > 32 || a.Uint32()&p.Mask().Uint32() != a.Uint32() {
			return nil, false
		}
		entries = append(entries, adEntry{prefix: p, hops: int(body[i+5])})
	}
	return entries, true
}

// bestRoute is the selected next hop for one prefix.
type bestRoute struct {
	linkSeq int
	hops    int
}

// routeTable holds every candidate route per prefix (one per link) plus the
// deterministic best selection. Prefixes keep first-seen order so floods,
// lookups, and debug dumps never depend on map iteration.
type routeTable struct {
	cands map[inet.Prefix]map[int]int // prefix -> linkSeq -> hops
	best  map[inet.Prefix]bestRoute   // present only while reachable
	order []inet.Prefix               // first-seen prefix order
}

func newRouteTable() routeTable {
	return routeTable{
		cands: make(map[inet.Prefix]map[int]int),
		best:  make(map[inet.Prefix]bestRoute),
	}
}

// update records one advertisement (hops >= maxHops withdraws the link's
// candidate) and reports whether the prefix's best route changed.
func (rt *routeTable) update(p inet.Prefix, linkSeq, hops int) bool {
	c, ok := rt.cands[p]
	if !ok {
		if hops >= maxHops {
			return false // withdrawing a route we never had
		}
		c = make(map[int]int)
		rt.cands[p] = c
		rt.order = append(rt.order, p)
	}
	if hops >= maxHops {
		if _, had := c[linkSeq]; !had {
			return false
		}
		delete(c, linkSeq)
	} else {
		if old, had := c[linkSeq]; had && old == hops {
			return false
		}
		c[linkSeq] = hops
	}
	return rt.recompute(p)
}

// recompute re-derives best[p]: fewest hops, ties to the lowest link
// sequence. Minimum over the candidate map is order-independent, so the
// result is deterministic regardless of iteration order.
func (rt *routeTable) recompute(p inet.Prefix) bool {
	old, had := rt.best[p]
	nb, found := bestRoute{}, false
	for seq, hops := range rt.cands[p] {
		if !found || hops < nb.hops || (hops == nb.hops && seq < nb.linkSeq) {
			nb, found = bestRoute{linkSeq: seq, hops: hops}, true
		}
	}
	switch {
	case !found && !had:
		return false
	case !found:
		delete(rt.best, p)
		return true
	case had && old == nb:
		return false
	}
	rt.best[p] = nb
	return true
}

// dropLink withdraws every candidate learned over linkSeq, returning the
// prefixes whose best route changed (in first-seen order).
func (rt *routeTable) dropLink(linkSeq int) []inet.Prefix {
	var changed []inet.Prefix
	for _, p := range rt.order {
		c := rt.cands[p]
		if _, had := c[linkSeq]; !had {
			continue
		}
		delete(c, linkSeq)
		if rt.recompute(p) {
			changed = append(changed, p)
		}
	}
	return changed
}

// lookup selects the forwarding link for dst: longest matching prefix, then
// fewest hops, then first-seen order.
func (rt *routeTable) lookup(dst inet.Addr) (linkSeq int, ok bool) {
	bestBits, bestHops := -1, 0
	for _, p := range rt.order {
		b, reach := rt.best[p]
		if !reach || !p.Contains(dst) {
			continue
		}
		if p.Bits > bestBits || (p.Bits == bestBits && b.hops < bestHops) {
			bestBits, bestHops = p.Bits, b.hops
			linkSeq, ok = b.linkSeq, true
		}
	}
	return linkSeq, ok
}

// reachable returns the reachable prefixes in first-seen order.
func (rt *routeTable) reachable() []inet.Prefix {
	var out []inet.Prefix
	for _, p := range rt.order {
		if _, ok := rt.best[p]; ok {
			out = append(out, p)
		}
	}
	return out
}

// dump renders the table deterministically (sorted by prefix string) for
// experiment reports and tests.
func (rt *routeTable) dump() string {
	lines := make([]string, 0, len(rt.best))
	for _, p := range rt.order {
		if b, ok := rt.best[p]; ok {
			lines = append(lines, fmt.Sprintf("%s via link%d hops=%d", p, b.linkSeq, b.hops))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
