#!/bin/sh
# scripts/bench_check.sh — benchmark regression gate. Re-runs the benchmark
# suite via scripts/bench.sh and compares every gated benchmark against a
# committed reference JSON (default BENCH_PR10.json): the gate fails if
# ns/op or allocs/op regressed by more than TOL percent (default 25).
#
# Gated: the E1–E15 experiment benchmarks, the campus-world throughput
# bench (CampusWorld), the sim kernel throughput benchmarks
# (KernelEventsPerSec at every depth, KernelSoak), the sharded-medium
# broadcast benches (MediumBroadcast at 64/1k/4k radios), and the per-layer
# marshal micro-benches (WEPSeal, TCPMarshal, IPv4Push, Dot11Data).
# RefHeapEventsPerSec and MediumBroadcastUnsharded are reported but not
# gated — they are the retired scheduler and the pre-shard delivery scan,
# kept as comparison floors. The chaos digest matrix benchmark is likewise
# reported only (pure wall-time, no E-table). Reference entries with no
# benchmark in the current run are ignored.
#
#   scripts/bench_check.sh [reference.json]
#
# allocs/op is deterministic, so any trip there is a real regression; ns/op
# is machine-dependent, hence the generous threshold.
set -eu

cd "$(dirname "$0")/.."

REF=${1:-BENCH_PR10.json}
TOL=${TOL:-25}
if [ ! -f "$REF" ]; then
	echo "bench_check: missing reference $REF" >&2
	exit 2
fi

CUR=$(mktemp)
trap 'rm -f "$CUR"' EXIT

# /dev/null baseline: emit plain numbers, no baseline_* embedding.
sh scripts/bench.sh "$CUR" /dev/null

awk -v tol="$TOL" -v ref="$REF" '
# Both files are bench.sh JSON: one benchmark per "name" line with labeled
# ns_per_op / allocs_per_op values (integers or decimals).
function jnum(line, key,    re, m) {
	re = "\"" key "\": *-?[0-9]+(\\.[0-9]+)?"
	if (match(line, re) == 0) return ""
	m = substr(line, RSTART, RLENGTH)
	sub(/.*: */, "", m)
	return m
}
function parse(line) {
	split(line, q, "\"")
	pname = q[4]
	pns = jnum(line, "ns_per_op")
	pallocs = jnum(line, "allocs_per_op")
}
function gated(name) {
	return name ~ /^E[0-9]/ || name ~ /^KernelEventsPerSec/ || \
		name ~ /^MediumBroadcast\// || name == "CampusWorld" || \
		name == "KernelSoak" || name == "WEPSeal" || \
		name == "TCPMarshal" || name == "IPv4Push" || name == "Dot11Data"
}
BEGIN {
	while ((getline line < ref) > 0) {
		if (line !~ /"name":/) continue
		parse(line)
		if (pns == "") continue
		rns[pname] = pns; rallocs[pname] = pallocs
	}
	close(ref)
	fail = 0
}
/"name":/ {
	parse($0)
	if (pns == "") next
	if (!(pname in rns)) {
		printf "NEW     %-32s ns/op=%s allocs/op=%s (no reference)\n", pname, pns, pallocs
		next
	}
	nslim = rns[pname] * (1 + tol / 100)
	# Small absolute grace on top of the percentage: micro-benches with
	# near-zero allocs/op (e.g. the runtime-internal residue of ~2 in the
	# soak) must not flap on +/-1 jitter; real regressions are thousands.
	allocslim = rallocs[pname] * (1 + tol / 100) + 16
	verdict = "ok"
	if (!gated(pname)) {
		verdict = "ungated"
	} else if (pns + 0 > nslim || pallocs + 0 > allocslim) {
		verdict = "REGRESSED"
		fail = 1
	}
	printf "%-9s %-32s ns/op %s -> %s, allocs/op %s -> %s\n", \
		verdict, pname, rns[pname], pns, rallocs[pname], pallocs
}
END {
	if (fail) {
		printf "bench_check: regression beyond %s%% of %s\n", tol, ref
		exit 1
	}
	printf "bench_check: all gated benchmarks within %s%% of %s\n", tol, ref
}
' "$CUR"
