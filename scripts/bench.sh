#!/bin/sh
# scripts/bench.sh — run the benchmark suite and emit a JSON summary:
#
#   - the root-package experiment benchmarks (E1–E15, the campus-world
#     throughput bench, and the chaos digest matrix), once each
#     (-benchtime 1x: they are whole experiments);
#   - the sim kernel throughput benchmarks (events/sec at several standing
#     queue depths, the reference-heap comparison, and the soak bench);
#   - the sharded-medium broadcast benchmarks (per-transmission delivery
#     cost at 64/1k/4k radios, plus the unsharded 1k comparison floor);
#   - the per-layer marshal micro-benches (WEP seal, TCP segment, IPv4
#     header push, 802.11 header);
#   - the 104-bit FMS recovery bench (E4's heaviest job), once: one
#     iteration is a whole crack. No reference gates it.
#
# Kernel and marshal benches run with a real -benchtime so single-shot noise
# never flaps the regression gate that consumes this file.
#
# Usage:
#
#   scripts/bench.sh [out.json [baseline]]
#
# out.json defaults to BENCH_PR10.json. baseline, when given, is either a
# saved `go test -bench` text output or a JSON file previously emitted by
# this script (e.g. BENCH_PR9.json); its numbers are embedded per benchmark
# as baseline_* fields for before/after comparison across a change. When no
# baseline is named, BENCH_PR9.json is used if present.
#
# BENCH_NOTES, if set in the environment, is embedded verbatim as a "notes"
# string — use it to record why a number was re-baselined.
set -eu

cd "$(dirname "$0")/.."

OUT=${1:-BENCH_PR10.json}
BASELINE=${2:-}
if [ -z "$BASELINE" ] && [ -f BENCH_PR9.json ] && [ "$OUT" != "BENCH_PR9.json" ]; then
	BASELINE=BENCH_PR9.json
fi
MICROTIME=${MICROTIME:-1s}
TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

go test -run '^$' -bench . -benchmem -benchtime 1x . | tee "$TMP"
go test -run '^$' -bench 'KernelEventsPerSec|RefHeapEventsPerSec|KernelSoak' \
	-benchmem -benchtime "$MICROTIME" ./internal/sim/ | tee -a "$TMP"
go test -run '^$' -bench 'MediumBroadcast/|MediumBroadcastUnsharded' \
	-benchmem -benchtime "$MICROTIME" ./internal/phy/ | tee -a "$TMP"
go test -run '^$' -bench 'WEPSeal$|TCPMarshal$|IPv4Push$|Dot11Data$' \
	-benchmem -benchtime "$MICROTIME" \
	./internal/wep/ ./internal/tcp/ ./internal/ipv4/ ./internal/dot11/ | tee -a "$TMP"
go test -run '^$' -bench 'FMSRecover104$' -benchmem -benchtime 1x ./internal/wep/ | tee -a "$TMP"

awk -v baseline="$BASELINE" -v notes="${BENCH_NOTES:-}" '
function bname(s) { sub(/^Benchmark/, "", s); sub(/-[0-9]+$/, "", s); return s }
# jnum extracts the numeric value of key from a JSON line emitted by this
# script, or "" when absent. Handles integers and decimals.
function jnum(line, key,    re, m) {
	re = "\"" key "\": *-?[0-9]+(\\.[0-9]+)?"
	if (match(line, re) == 0) return ""
	m = substr(line, RSTART, RLENGTH)
	sub(/.*: */, "", m)
	return m
}
# parsebench reads one `go test -bench -benchmem` result line into the
# global arrays keyed by unit, so extra b.ReportMetric columns (events/sec,
# simsec/wallsec) never shift the standard ones.
function parsebench(   i, unit, val) {
	delete metric
	for (i = 3; i < NF; i += 2) {
		val = $i; unit = $(i + 1)
		if (unit == "ns/op") metric["ns"] = val
		else if (unit == "B/op") metric["bytes"] = val
		else if (unit == "allocs/op") metric["allocs"] = val
		else if (unit == "events/sec") metric["events_per_sec"] = val
		else if (unit == "simsec/wallsec") metric["simsec_per_wallsec"] = val
	}
}
BEGIN {
	if (baseline != "") {
		while ((getline line < baseline) > 0) {
			if (line ~ /^Benchmark/) {
				# Saved text output of `go test -bench -benchmem`.
				n = split(line, f, /[ \t]+/)
				name = bname(f[1])
				for (i = 3; i < n; i += 2) {
					if (f[i + 1] == "ns/op") bns[name] = f[i]
					else if (f[i + 1] == "B/op") bbytes[name] = f[i]
					else if (f[i + 1] == "allocs/op") ballocs[name] = f[i]
				}
			} else if (line ~ /"name":/) {
				# JSON from a previous run of this script.
				split(line, q, "\"")
				name = q[4]
				if (jnum(line, "ns_per_op") != "") {
					bns[name] = jnum(line, "ns_per_op")
					bbytes[name] = jnum(line, "bytes_per_op")
					ballocs[name] = jnum(line, "allocs_per_op")
				}
			}
		}
		close(baseline)
	}
	print "{"
	print "  \"command\": \"scripts/bench.sh (root E-benches at 1x; sim kernel + marshal micro-benches at a real benchtime)\","
	if (notes != "") {
		gsub(/\\/, "\\\\", notes); gsub(/"/, "\\\"", notes)
		printf "  \"notes\": \"%s\",\n", notes
	}
	printf "  \"benchmarks\": ["
	first = 1
}
$1 ~ /^Benchmark/ && / ns\/op/ {
	name = bname($1)
	parsebench()
	if (!first) printf ","
	first = 0
	printf "\n    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", \
		name, metric["ns"], metric["bytes"], metric["allocs"]
	if ("events_per_sec" in metric)
		printf ", \"events_per_sec\": %s", metric["events_per_sec"]
	if ("simsec_per_wallsec" in metric)
		printf ", \"simsec_per_wallsec\": %s", metric["simsec_per_wallsec"]
	if (name in bns)
		printf ",\n     \"baseline_ns_per_op\": %s, \"baseline_bytes_per_op\": %s, \"baseline_allocs_per_op\": %s", \
			bns[name], bbytes[name], ballocs[name]
	printf "}"
}
END { print "\n  ]\n}" }
' "$TMP" > "$OUT"

echo "wrote $OUT"
