package experiments

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// tiny is the smallest meaningful scale for CI-speed smoke tests.
var tiny = Scale{Trials: 2, Quick: true}

func mustCell(t *testing.T, tbl Table, row, col int) string {
	t.Helper()
	if row >= len(tbl.Rows) || col >= len(tbl.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d) in %v", tbl.ID, row, col, tbl.Rows)
	}
	return tbl.Rows[row][col]
}

func TestTableRendering(t *testing.T) {
	tbl := Table{ID: "X", Title: "demo", Columns: []string{"a", "bb"}}
	tbl.AddRow("1", 2.0)
	tbl.AddRow("longer", "cells")
	out := tbl.String()
	if !strings.Contains(out, "== X: demo ==") || !strings.Contains(out, "longer") {
		t.Fatalf("rendered:\n%s", out)
	}
}

func TestE1Shape(t *testing.T) {
	tbl := E1AssociationCapture(tiny)
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// Closest rogue (2 m, huge advantage): passive capture must be 100%.
	if got := mustCell(t, tbl, 0, 2); got != "100%" {
		t.Fatalf("close-rogue passive capture = %q", got)
	}
	// Far rogue (80 m, negative advantage): passive capture must be 0%.
	if got := mustCell(t, tbl, 5, 2); got != "0%" {
		t.Fatalf("far-rogue passive capture = %q", got)
	}
}

func TestE2Shape(t *testing.T) {
	tbl := E2DownloadMITM(tiny)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	for i := range tbl.Rows {
		if got := mustCell(t, tbl, i, 1); got != "100%" {
			t.Fatalf("row %d (%s): compromised = %q, want 100%%", i, tbl.Rows[i][0], got)
		}
	}
}

func TestE2bShape(t *testing.T) {
	tbl := E2bBoundary(tiny)
	sawMiss, sawStreamAlwaysYes := false, true
	for _, r := range tbl.Rows {
		if r[1] == "MISSED" {
			sawMiss = true
		}
		if r[2] != "yes" {
			sawStreamAlwaysYes = false
		}
	}
	if !sawMiss {
		t.Fatalf("chunk mode never missed a straddling pattern:\n%s", tbl.String())
	}
	if !sawStreamAlwaysYes {
		t.Fatalf("streaming mode missed a pattern:\n%s", tbl.String())
	}
}

func TestE3Shape(t *testing.T) {
	tbl := E3VPNDefense(tiny)
	// no VPN: compromised; full VPN: clean; tampered tunnel: clean AND
	// detected; split: compromised.
	if mustCell(t, tbl, 0, 1) != "100%" {
		t.Fatalf("no-VPN compromised = %q", mustCell(t, tbl, 0, 1))
	}
	if mustCell(t, tbl, 1, 1) != "0%" || mustCell(t, tbl, 1, 2) != "100%" {
		t.Fatalf("full-VPN row wrong: %v", tbl.Rows[1])
	}
	if mustCell(t, tbl, 2, 1) != "0%" {
		t.Fatalf("tampered-tunnel compromised = %q", mustCell(t, tbl, 2, 1))
	}
	if mustCell(t, tbl, 2, 3) == "0" {
		t.Fatalf("tampering not detected: %v", tbl.Rows[2])
	}
	if mustCell(t, tbl, 3, 1) != "100%" {
		t.Fatalf("split-tunnel compromised = %q", mustCell(t, tbl, 3, 1))
	}
}

func TestE4Shape(t *testing.T) {
	tbl := E4FMSCrack(tiny)
	if mustCell(t, tbl, 0, 4) != "yes" {
		t.Fatalf("40-bit key not recovered:\n%s", tbl.String())
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[4] != "MISSED" {
		t.Fatalf("weak-avoiding ablation recovered a key?! %v", last)
	}
}

func TestE5Shape(t *testing.T) {
	tbl := E5MACFilterBypass(tiny)
	if mustCell(t, tbl, 0, 1) != "0%" {
		t.Fatalf("unlisted MAC associated: %v", tbl.Rows)
	}
	if mustCell(t, tbl, 1, 1) != "100%" {
		t.Fatalf("cloned MAC rejected: %v", tbl.Rows)
	}
}

func TestE7Shape(t *testing.T) {
	tbl := E7Detection(tiny)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// Cloned-BSSID rogue must be detected.
	if mustCell(t, tbl, 0, 2) == "0%" {
		t.Fatalf("cloned rogue undetected:\n%s", tbl.String())
	}
}

func TestE8Shape(t *testing.T) {
	tbl := E8Eavesdrop(tiny)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// Open cell: wireless recovers the file, switched wire captures nothing.
	if mustCell(t, tbl, 0, 2) != "yes" {
		t.Fatalf("wireless sniffer could not recover the file: %v", tbl.Rows[0])
	}
	if mustCell(t, tbl, 1, 1) != "0 / 0" || mustCell(t, tbl, 1, 2) == "yes" {
		t.Fatalf("switched wired sniffer saw traffic: %v", tbl.Rows[1])
	}
	// WEP cell: opaque without the key, transparent with it.
	if mustCell(t, tbl, 2, 2) == "yes" {
		t.Fatalf("WEP capture readable without the key: %v", tbl.Rows[2])
	}
	if mustCell(t, tbl, 3, 2) != "yes" {
		t.Fatalf("WEP capture not readable with the key: %v", tbl.Rows[3])
	}
}

func TestE9Shape(t *testing.T) {
	tbl := E9Overhead(tiny)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows {
		if r[1] == "failed" {
			t.Fatalf("scenario %q failed:\n%s", r[0], tbl.String())
		}
	}
}

func TestE2cShape(t *testing.T) {
	tbl := E2cContentInjection(tiny)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// No VPN: page loads, script injected, rest of the page untouched.
	if mustCell(t, tbl, 0, 1) != "100%" || mustCell(t, tbl, 0, 2) != "100%" || mustCell(t, tbl, 0, 3) != "100%" {
		t.Fatalf("no-VPN row: %v", tbl.Rows[0])
	}
	// Full VPN: loads, NO injection.
	if mustCell(t, tbl, 1, 1) != "100%" || mustCell(t, tbl, 1, 2) != "0%" {
		t.Fatalf("VPN row: %v", tbl.Rows[1])
	}
}

func TestE2dShape(t *testing.T) {
	tbl := E2dHostileHotspot(tiny)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	if mustCell(t, tbl, 0, 1) != "100%" || mustCell(t, tbl, 0, 2) != "0%" {
		t.Fatalf("honest hotspot row: %v", tbl.Rows[0])
	}
	if mustCell(t, tbl, 1, 2) != "100%" {
		t.Fatalf("hostile hotspot did not compromise: %v", tbl.Rows[1])
	}
	if mustCell(t, tbl, 2, 1) != "100%" || mustCell(t, tbl, 2, 2) != "0%" {
		t.Fatalf("VPN row: %v", tbl.Rows[2])
	}
}

func TestE10Shape(t *testing.T) {
	tbl := E10DeauthStorm(tiny)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// No rogue: the client always recovers from the storm onto the real AP.
	if mustCell(t, tbl, 1, 2) != "100%" || mustCell(t, tbl, 1, 3) != "0%" {
		t.Fatalf("no-rogue storm row: %v", tbl.Rows[1])
	}
	// Rogue present: the client ends up associated either way.
	if mustCell(t, tbl, 3, 2) != "100%" {
		t.Fatalf("rogue storm row: %v", tbl.Rows[3])
	}
}

func TestE11Shape(t *testing.T) {
	tbl := E11APOutage(tiny)
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	for i, r := range tbl.Rows {
		if r[2] != "100%" {
			t.Fatalf("row %d: tunnel not up at end: %v", i, r)
		}
	}
	// The long outages (rows 1, 3) must actually exercise DPD: at least one
	// peer timeout and one rekey on average.
	for _, i := range []int{1, 3} {
		if mustCell(t, tbl, i, 4) == "0.0" || mustCell(t, tbl, i, 5) == "0.0" {
			t.Fatalf("long-outage row %d saw no DPD/rekey: %v", i, tbl.Rows[i])
		}
	}
	// The short UDP outage (row 2) must not trip DPD. (The TCP carrier's
	// reassociation delay can push a short outage past the budget on some
	// seeds, so row 0 is not pinned.)
	if mustCell(t, tbl, 2, 5) != "0.0" {
		t.Fatalf("short-outage UDP row tripped DPD: %v", tbl.Rows[2])
	}
}

func TestE12Shape(t *testing.T) {
	tbl := E12BurstLoss(tiny)
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	for i, r := range tbl.Rows {
		if r[1] != "100%" || r[2] != "100%" {
			t.Fatalf("row %d: download did not complete cleanly: %v", i, r)
		}
	}
}

func TestE13Shape(t *testing.T) {
	tbl := E13FirstHopRogue(tiny)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	// Both configurations download clean — the mesh survives its traitor.
	for i := range tbl.Rows {
		if mustCell(t, tbl, i, 1) != "100%" {
			t.Fatalf("row %d not clean: %v", i, tbl.Rows[i])
		}
	}
	// Honest chain: nothing mangled, nothing detected.
	if mustCell(t, tbl, 0, 2) != "0.0" || mustCell(t, tbl, 0, 4) != "0.0" {
		t.Fatalf("honest row saw tampering: %v", tbl.Rows[0])
	}
	// Hostile chain: records were mangled, every layer that CAN see it did,
	// and the layer that cannot (per-hop link MACs) stayed silent.
	if mustCell(t, tbl, 1, 4) == "0.0" {
		t.Fatalf("hostile relay mangled nothing: %v", tbl.Rows[1])
	}
	if mustCell(t, tbl, 1, 2) == "0.0" {
		t.Fatalf("mangling went undetected end to end: %v", tbl.Rows[1])
	}
	if mustCell(t, tbl, 1, 3) != "0.0" {
		t.Fatalf("per-hop MACs flagged tampering that must be invisible to them: %v", tbl.Rows[1])
	}
	// Anonymity: the exit's view of the client is the pseudonym, not an IP.
	if got := mustCell(t, tbl, 1, 5); got != `"wanderer"` {
		t.Fatalf("exit sees client as %s", got)
	}
}

func TestE14Shape(t *testing.T) {
	tbl := E14RelayChainChaos(tiny)
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	for i, r := range tbl.Rows {
		if r[1] != "100%" || r[2] != "100%" {
			t.Fatalf("row %d did not recover: %v", i, r)
		}
	}
	// The relay-drop row must actually exercise the failover machinery:
	// tunnel DPD fired and the rebuilt chain rekeyed.
	if mustCell(t, tbl, 1, 3) == "0.0" || mustCell(t, tbl, 1, 4) == "0.0" {
		t.Fatalf("relay-drop row saw no DPD/rekey: %v", tbl.Rows[1])
	}
	// The brief link-flap must stay inside the DPD budget — graceful
	// degradation, not a teardown.
	if mustCell(t, tbl, 4, 4) != "0.0" {
		t.Fatalf("link-flap tripped DPD: %v", tbl.Rows[4])
	}
}

// TestParallelSweepsMatchSequential pins the tentpole's determinism claim:
// every table fans its trials out through core.Sweep, and fanning across
// workers must not change a single byte of any rendered table. GOMAXPROCS=1
// forces the sweep's sequential fallback; GOMAXPROCS=4 forces the worker
// pool even on a single-core machine (workers pull points in whatever order
// the scheduler allows — only the result slots are ordered).
func TestParallelSweepsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full tiny-scale suite twice")
	}
	render := func() []string {
		tables := All(tiny)
		out := make([]string, len(tables))
		for i, tbl := range tables {
			out[i] = tbl.String()
		}
		return out
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	seq := render()
	runtime.GOMAXPROCS(4)
	par := render()
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("table %d differs between sequential and parallel sweeps.\n--- sequential ---\n%s--- parallel ---\n%s",
				i, seq[i], par[i])
		}
	}
}

// TestE15Shape: the campus fully associates at every scale, the rogue's
// catch stays a single-neighborhood slice of the campus, and the medium
// moves traffic at every size.
func TestE15Shape(t *testing.T) {
	tbl := E15CampusScale(Scale{Trials: 1, Quick: true})
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows: %d", len(tbl.Rows))
	}
	for i, row := range tbl.Rows {
		if got := mustCell(t, tbl, i, 2); got != "100%" {
			t.Fatalf("row %d (%s stations): assoc = %q, want 100%%", i, row[0], got)
		}
		if got := mustCell(t, tbl, i, 3); got == "0.0" {
			t.Fatalf("row %d (%s stations): rogue captured nobody", i, row[0])
		}
		if got := mustCell(t, tbl, i, 5); got == "0" {
			t.Fatalf("row %d (%s stations): no medium throughput", i, row[0])
		}
	}
}

// TestE15ScaleLadder pins the ladder's structure — Quick stops at 1024
// stations, full scale climbs two more quadrupling rungs to 16384 — and
// smokes the 16384-station world itself: the table's top row must come from
// a world that actually constructs and moves at that size, so the smoke
// builds it and runs the join/scan opening (a short slice of e15SimTime;
// the full window is the experiment's job, not the test's).
func TestE15ScaleLadder(t *testing.T) {
	quick := e15Sizes(true)
	full := e15Sizes(false)
	if len(quick) != 2 || quick[len(quick)-1].stas != 1024 {
		t.Fatalf("quick ladder: %v", quick)
	}
	if len(full) != 4 || full[len(full)-1] != (e15Size{1024, 16384}) {
		t.Fatalf("full ladder: %v", full)
	}
	for i := 1; i < len(full); i++ {
		if full[i].stas != 4*full[i-1].stas {
			t.Fatalf("ladder rung %d does not quadruple: %v", i, full)
		}
	}
	if testing.Short() {
		t.Skip("16384-station smoke")
	}
	top := full[len(full)-1]
	w := core.NewCampusWorld(core.CampusConfig{
		Seed:  1,
		Rogue: true,
		Topology: core.TopologyConfig{
			Kind: core.TopoCampus, Seed: 1,
			APs: top.aps, STAs: top.stas,
		},
	})
	if got := len(w.STAs); got != top.stas {
		t.Fatalf("topology clamped the top rung: %d stations, want %d", got, top.stas)
	}
	// 100 ms covers every AP's first beacon and the earliest joiners' probe
	// scans — enough to prove the world is live without paying for the full
	// association ladder (no station associates this early at any scale).
	w.Run(100 * sim.Millisecond)
	if w.Medium.Transmissions == 0 || w.Medium.Deliveries == 0 {
		t.Fatalf("16384-station world is inert after the opening: tx=%d deliveries=%d",
			w.Medium.Transmissions, w.Medium.Deliveries)
	}
}
